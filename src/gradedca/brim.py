"""Buchsbaum-Rim functions and coefficients.

For a module E ⊆ F = R^r given by a matrix of forms, Fⁿ is the free
R-module on the degree-n monomials in T₁..T_r, and Eⁿ is spanned by the
degree-n products of the g_j = Σ_i φ_ij T_i.  So E⁰ = F⁰ = R and
Eⁿ⁺¹ = Σ_j g_j·Eⁿ, the filtration that hilbert._Powers steps for the
Hilbert-Samuel values too, with tables that hilbert sums from R's
multiplication tables: level n in degree t is an echelon basis of the
images g_j·(a, m) = Σ_i (a + e_i, NF_R(φ_ij·m)) of level n − 1's bases.
The filtration lives on the ParameterModule, so every fit over
n = 1, 2, … steps each level once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count

from .gb import GBError
from .hilbert import _Powers, _Space, dim_module, fit_binomial, module_length
from .homology import is_unmixed, local_cohomology_lengths
from .modules import FreeModule, GradedModule
from .poly import monomials_of_degree, require


class BrimError(GBError):
    pass


@dataclass(frozen=True)
class ParameterModule:
    ring: object            # the ambient polynomial ring S
    ring_rels: tuple        # R = S/(ring_rels)
    rank: int               # r, the rank of F
    columns: tuple          # tuple of columns, each a tuple of r Polys

    @property
    def gens_count(self):
        return len(self.columns)

    @cached_property  # stored in the instance dict, which frozen allows
    def base(self):
        """R = S/(ring_rels), one module, so its basis is built once."""
        return GradedModule.quotient_ring(self.ring, list(self.ring_rels))

    @cached_property  # stored in the instance dict, which frozen allows
    def base_dim(self):
        return dim_module(self.base)

    @property
    def is_parameter(self):
        return self.gens_count == self.base_dim + self.rank - 1

    @cached_property  # stored in the instance dict, which frozen allows
    def colength(self):
        """λ(F/E) over R = S/(ring_rels), or None when it is infinite."""
        free = FreeModule(self.ring, [0] * self.rank)
        rels = [free.element(col) for col in self.columns]
        rels += free.ideal_multiples(self.ring_rels)
        return module_length(GradedModule.from_relations(free, rels))

    @cached_property  # stored in the instance dict, which frozen allows
    def powers(self):
        """The filtration Eⁿ ⊆ Fⁿ, each level stepped once per module."""
        return _brim_powers(self)


def make_parameter_module(ring, ring_rels, columns) -> ParameterModule:
    """Validate a matrix of forms as generators of E ⊆ R^r."""
    cols = []
    rank = None
    for col in columns:
        col = tuple(col)
        if rank is None:
            rank = len(col)
        elif len(col) != rank:
            raise BrimError("ragged generator matrix")
        degs = set()
        for e in col:
            if e.is_zero():
                continue
            if not e.is_homogeneous():
                raise BrimError("generator entries must be homogeneous")
            if e.total_degree() == 0:
                raise BrimError("generators must lie inside m·F")
            degs.add(e.total_degree())
        if len(degs) != 1:
            raise BrimError("each generator column must be a vector of forms "
                            "of one common degree")
        cols.append(col)
    if not cols:
        raise BrimError("no generators")
    if not all(f.is_homogeneous() for f in ring_rels):
        raise BrimError("ring relations must be homogeneous")
    return ParameterModule(ring=ring, ring_rels=tuple(ring_rels),
                           rank=rank, columns=tuple(cols))


def _brim_powers(pm: ParameterModule):
    """Eⁿ ⊆ Fⁿ as a hilbert._Powers filtration over R = S/(ring_rels):
    A_n = Fⁿ is R on the blocks a, the T-monomials of degree n, and g_j
    has the part (T_i, φ_ij) for each φ_ij ≠ 0, so
    g_j·(a, m) = Σ_i (a·T_i, NF_R(φ_ij·m)).  The spaces hold R and the
    columns' entries, not pm, so pm and its powers form no cycle."""
    base, rank = pm.base, pm.rank
    units = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    parts = [[(units[i], e) for i, e in enumerate(col) if not e.is_zero()]
             for col in pm.columns]
    return _Powers(_Space(base, list(monomials_of_degree(rank, n)), parts)
                   for n in count())


def br_value(pm: ParameterModule, n: int) -> int:
    """λ(Fⁿ/Eⁿ), level n of pm.powers.

    Fⁿ is the free R-module on the T-monomials of degree n, and Eⁿ is
    spanned by the degree-n products of the g_j = Σ_i φ_ij T_i.  λ(F/E) < ∞
    is certified first; then every λ(Fⁿ/Eⁿ) is finite.
    """
    if n == 0:
        return 0
    if pm.colength is None:
        raise BrimError("λ(F^%d/E^%d) is infinite: generators do not "
                        "have finite colength" % (n, n))
    return pm.powers.value(n)


def binom_poly(n, s):
    """binom(n+s, s) as a polynomial in n, at any integer n.

    After step k, out = (n+1)···(n+k)/k!, an integer, so each division is
    exact.
    """
    out = 1
    for k in range(1, s + 1):
        out = out * (n + k) // k
    return out


@dataclass
class BRReport:
    table: list
    degree: int
    coefficients: list
    br: int
    br1: int
    equality_case: bool
    pointwise_bound_ok: bool


def br_coefficients(pm: ParameterModule) -> BRReport:
    """Fit of λ(Fⁿ/Eⁿ) in the binomial basis of degree d + r − 1."""
    deg = pm.base_dim + pm.rank - 1
    fit = fit_binomial(lambda n: br_value(pm, n), deg, 1, deg + 8)
    if fit is None:
        raise BrimError("Buchsbaum-Rim table did not stabilize within n <= %d"
                        % (deg + 8))
    coeffs, values, _ = fit
    br, br1 = coeffs[0], coeffs[1]
    bound_ok = all(values[n] >= br * binom_poly(n - 1, deg)
                   for n in range(len(values)))
    eq = any(values[n] == br * binom_poly(n - 1, deg)
             for n in range(1, len(values)))
    if pm.is_parameter:
        require(br >= 1, "Buchsbaum-Rim multiplicity must be positive")
        require(br1 <= 0, "br1 must be nonpositive on parameter modules")
        require(bound_ok, "pointwise Buchsbaum-Rim bound violated")
        if eq:
            require(all(values[n] == br * binom_poly(n - 1, deg)
                        for n in range(len(values))),
                    "equality at one n must propagate to all n")
    return BRReport(table=list(values), degree=deg, coefficients=coeffs,
                    br=br, br1=br1, equality_case=eq,
                    pointwise_bound_ok=bound_ok)


@dataclass
class ConjectureProbe:
    is_cm: bool
    unmixed: bool
    br1: int
    alert: bool


def probe_conjecture_9_5(pm: ParameterModule) -> ConjectureProbe:
    """Evidence for: R unmixed and br₁(U) = 0 ⟹ R Cohen-Macaulay."""
    cm = local_cohomology_lengths(pm.base).is_cohen_macaulay
    unm = is_unmixed(pm.base)
    rep = br_coefficients(pm)
    alert = unm and rep.br1 == 0 and not cm
    return ConjectureProbe(is_cm=cm, unmixed=unm, br1=rep.br1, alert=alert)
