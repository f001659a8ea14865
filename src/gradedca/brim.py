"""Buchsbaum-Rim functions and coefficients.

For a module E ⊆ F = R^r given by a matrix of forms, Fⁿ is the free
R-module on the degree-n monomials in T₁..T_r, and Eⁿ is spanned by the
degree-n products of the g_j = Σ_i φ_ij T_i in S[T₁..T_r].  Fⁿ is
presented over S as a free module with the relations of R at every
position, all twists 0, so λ(Fⁿ/Eⁿ) is hilbert.quotient_length, the rank
count that also gives the Hilbert-Samuel values: a packed-integer echelon
over F_p, the exact elimination over Q.  The levels of products of the g_j
live on the ParameterModule, so a fit over n = 1, 2, … builds each level
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .gb import GBError
from .hilbert import (_power_levels, dim_module, fit_binomial,
                      module_length, quotient_length)
from .homology import is_unmixed, local_cohomology_lengths
from .modules import FreeModule, GradedModule, Vector
from .poly import Poly, PolyRing, monomials_of_degree, require


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
    def base_dim(self):
        return dim_module(GradedModule.quotient_ring(self.ring, list(self.ring_rels)))

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
    def product_levels(self):
        """products(n): the degree-n products of the g_j = Σ_i φ_ij T_i in
        S[T₁..T_r], each level built once per module from the one below."""
        tring, r = _t_ring(self), self.rank
        return _power_levels([
            Poly(tring, {m + tuple(int(k == i) for k in range(r)): c
                         for i, e in enumerate(col) for m, c in e.terms.items()})
            for col in self.columns])


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
    return ParameterModule(ring=ring, ring_rels=tuple(ring_rels),
                           rank=rank, columns=tuple(cols))


def _t_ring(pm: ParameterModule):
    """S[T₁..T_r], with T-names that no variable of S already uses."""
    ring = pm.ring
    names = list(ring.var_names)
    for i in range(pm.rank):
        name = "T%d" % (i + 1)
        while name in names:
            name = "_" + name
        names.append(name)
    return PolyRing(ring.field, names)


def br_value(pm: ParameterModule, n: int) -> int:
    """λ(Fⁿ/Eⁿ).

    Fⁿ is the free R-module on the T-monomials of degree n, presented over
    S with the ring relations at every position, and Eⁿ is spanned by the
    degree-n products of the g_j = Σ_i φ_ij T_i in S[T₁..T_r], taken from
    pm.product_levels and read back by T-exponent → position.  λ(F/E) < ∞
    is certified first; then every λ(Fⁿ/Eⁿ) is finite and quotient_length
    gives it.
    """
    if n == 0:
        return 0
    if pm.colength is None:
        raise BrimError("λ(F^%d/E^%d) is infinite: generators do not "
                        "have finite colength" % (n, n))
    nv = pm.ring.num_vars
    position = {t: k for k, t in enumerate(monomials_of_degree(pm.rank, n))}
    free = FreeModule(pm.ring, [0] * len(position))
    fn = GradedModule.from_relations(free, free.ideal_multiples(pm.ring_rels))
    vectors = (Vector(free, {(position[m[nv:]], m[:nv]): c
                             for m, c in p.terms.items()})
               for p in pm.product_levels(n))
    return quotient_length(fn, vectors)


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
    base = GradedModule.quotient_ring(pm.ring, list(pm.ring_rels))
    cm = local_cohomology_lengths(base).is_cohen_macaulay
    unm = is_unmixed(base)
    rep = br_coefficients(pm)
    alert = unm and rep.br1 == 0 and not cm
    return ConjectureProbe(is_cm=cm, unmixed=unm, br1=rep.br1, alert=alert)
