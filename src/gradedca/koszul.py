"""Koszul complexes and partial Euler characteristics.

The complex C_i = ⊕_T M(−deg x_T) on forms x1..xr has its homology
lengths from Hilbert series alone: the exact sequences 0 → Z_i → C_i →
im d_i → 0, 0 → im d_{i+1} → Z_i → H_i → 0 and 0 → im d_i → C_{i−1} →
coker d_i → 0 give HS(H_i) = HS(coker d_i) + HS(coker d_{i+1}) − HS(C_{i−1}),
with coker d_0 = 0, C_{−1} = 0 and coker d_{r+1} = C_r.  HS(C_j) is
Σ_T t^{deg x_T}·HS(M), so only the r cokernels need a Groebner basis.
coker d_1 is quotient_by_ideal's M/(x)M, whose basis colength shares.

A first form x₁ that is M-regular (0 :_M x₁ = 0, read off colon_series)
is peeled first: H_i(x; M) = H_i(x′; M/x₁M) and H_r(x; M) = 0 (Bruns and
Herzog, Cohen-Macaulay Rings, 1.6), and the peel repeats on M/x₁M.  So
a complex is built only on the forms left after the longest M-regular
prefix of x.  The peel stops at one form, whose complex needs no basis
beyond M/xM's: for a system of parameters of a Cohen-Macaulay module,
a regular sequence, that one-form complex is the only one built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gb import GBError, quotient_by_ideal
from .hilbert import (colength, colon_series, divide_poles,
                      hilbert_coefficients, hilbert_series, series_length,
                      shifted_sum)
from .modules import FreeModule, GradedModule, ModuleMap, Vector, memoized
from .poly import require


class KoszulError(GBError):
    pass


def _subsets(r, i):
    return list(itertools.combinations(range(r), i))


def koszul_stage(module: GradedModule, forms, i):
    """The free module F₀ ⊗ Λ^i on len(forms) symbols."""
    amb = module.ambient
    degs = [f.total_degree() for f in forms]
    twists = []
    for T in _subsets(len(forms), i):
        for b in range(amb.rank):
            twists.append(amb.twists[b] + sum(degs[s] for s in T))
    return FreeModule(module.ring, twists)


def koszul_differential(module: GradedModule, forms, i) -> ModuleMap:
    """d_i : F₀ ⊗ Λ^i → F₀ ⊗ Λ^{i−1}.

    The column of e_b ⊗ e_T is Σ_j (−1)^j x_{T_j}·e_b ⊗ e_{T∖T_j}, whose
    summands sit at distinct positions.
    """
    r = len(forms)
    f = module.ambient.rank
    fld = module.ring.field
    src = koszul_stage(module, forms, i)
    tgt = koszul_stage(module, forms, i - 1)
    lower = {T: k for k, T in enumerate(_subsets(r, i - 1))}
    cols = []
    for T in _subsets(r, i):
        for b in range(f):
            terms = {}
            for j, s in enumerate(T):
                pos = lower[T[:j] + T[j + 1:]] * f + b
                for m, c in forms[s].terms.items():
                    terms[(pos, m)] = c if j % 2 == 0 else fld.reduce(-c)
            cols.append(Vector(tgt, terms))
    return ModuleMap(src, tgt, cols)


def _stage_relations(module: GradedModule, stage: FreeModule, i, r):
    """Relations of M carried into every exterior block of the stage."""
    f = module.ambient.rank
    return [stage.embed(w, blk * f)
            for blk in range(len(_subsets(r, i))) for w in module.relations()]


@dataclass
class KoszulHomologyReport:
    lengths: list
    chi: int
    chi1: int


def koszul_homology(module: GradedModule, forms) -> KoszulHomologyReport:
    """Lengths of H_i(x; M) for i = 0..r, with χ and χ₁, kept per (M, forms);
    a tuple of the forms keeps an iterator from being spent on the key."""
    return _koszul_homology(module, tuple(forms))


@memoized(lambda module, forms: tuple(map(repr, forms)))
def _koszul_homology(module: GradedModule, forms) -> KoszulHomologyReport:
    r = len(forms)
    for f in forms:
        if f.is_zero() or not f.is_homogeneous():
            raise KoszulError("Koszul forms must be nonzero homogeneous")
    quo = quotient_by_ideal(module, forms[:1])
    if r > 1 and not colon_series(module, forms[0], quo):
        # x₁ is M-regular: H_i(x; M) = H_i(x′; M/x₁M) and H_r = 0
        lengths = koszul_homology(quo, forms[1:]).lengths + [0]
    else:
        lengths = _complex_lengths(module, forms)
    chi = sum((-1) ** i * l for i, l in enumerate(lengths))
    chi1 = sum((-1) ** (i - 1) * l for i, l in enumerate(lengths) if i >= 1)
    require(chi1 >= 0, "partial Euler characteristic must be nonnegative")
    return KoszulHomologyReport(lengths=lengths, chi=chi, chi1=chi1)


def _complex_lengths(module: GradedModule, forms):
    """λ(H_i(x; M)) for i = 0..r, read off the Koszul complex's cokernels."""
    r = len(forms)
    n = module.ring.num_vars
    diffs = {i: koszul_differential(module, forms, i) for i in range(1, r + 1)}
    for i in range(1, r):
        require(diffs[i].compose(diffs[i + 1]).is_zero(), "d∘d != 0")
    num = hilbert_series(module)
    degs = [f.total_degree() for f in forms]
    stages = [shifted_sum((1, sum(degs[s] for s in T), num)
                          for T in _subsets(r, i)) for i in range(r + 1)]
    # coker[i] = coker d_i = C_{i−1}/im d_i, and coker d_1 = M/(x)M
    coker = [{}, hilbert_series(quotient_by_ideal(module, forms))]
    for i in range(2, r + 1):
        rels = _stage_relations(module, diffs[i].target, i - 1, r) + diffs[i].columns()
        coker.append(hilbert_series(GradedModule.from_relations(diffs[i].target, rels)))
    coker.append(stages[r])
    lengths = []
    for i in range(r + 1):
        h_num = shifted_sum([(1, 0, coker[i]), (1, 0, coker[i + 1]),
                             (-1, 0, stages[i - 1] if i else {})])
        j, h_i = divide_poles(h_num, n)
        if j < n:
            raise KoszulError(
                "non-finite Koszul homology: is the ideal a parameter ideal?")
        require(all(c >= 0 for c in h_i.values()),
                "a Koszul homology module has negative dimension in a degree")
        lengths.append(sum(h_i.values()))
    return lengths


def chi1_serre(module: GradedModule, q_gens) -> int:
    """λ(M/QM) − e₀(Q,M); agrees with the homological χ₁."""
    lam = colength(module, list(q_gens))
    e = hilbert_coefficients(module, list(q_gens)).e
    return lam - e[0]


@dataclass
class Chi1RecursionReport:
    passed: bool
    total: int
    from_quotient: int
    from_colon: int


def chi1_recursion_check(module: GradedModule, forms) -> Chi1RecursionReport:
    """χ₁(x;M) = χ₁(x′;M/x₁M) + χ(x′;0:_M x₁) for an ordered sop.

    It follows from χ(x;M) = χ(x′;M/x₁M) − χ(x′;0:_M x₁) and
    H₀(x;M) = H₀(x′;M/x₁M), so the colon module enters through its full
    Euler characteristic.  When x₁ is M-regular, from_colon is 0, and
    total and from_quotient come from one computation: koszul_homology
    peels x₁ and computes H(x′; M/x₁M), which this check then reads back.
    """
    forms = list(forms)
    if len(forms) < 2:
        raise KoszulError("recursion check needs at least two forms")
    x1, rest = forms[0], forms[1:]
    total = koszul_homology(module, forms).chi1
    quo = quotient_by_ideal(module, [x1])
    a = koszul_homology(quo, rest).chi1
    # χ(x′; 0:_M x₁) is the value at 1 of HS(0:_M x₁)·∏_{x∈x′}(1 − t^deg x)
    num = colon_series(module, x1, quo)
    for f in rest:
        num = shifted_sum([(1, 0, num), (-1, f.total_degree(), num)])
    b = series_length(num, module.ring.num_vars)
    require(b is not None, "x′ is a system of parameters on 0:_M x₁")
    require(b >= 0, "χ(x′; 0:_M x₁) = e(x′; 0:_M x₁) or 0, never negative")
    return Chi1RecursionReport(passed=(total == a + b), total=total,
                               from_quotient=a, from_colon=b)
