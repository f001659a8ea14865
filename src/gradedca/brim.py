"""Buchsbaum-Rim functions and coefficients.

For a module E ⊆ F = R^r given by a matrix of forms, E^n is realized as
the span of degree-n products of the linear forms g_j = Σ_i φ_ij T_i
inside R[T₁..T_r]; λ(Fⁿ/Eⁿ) is accumulated per ring degree by a rank
count in the standard-monomial basis of R, with no power-ideal bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .gb import GBError, SubmoduleGB
from .hilbert import (_RankTracker, binom_poly, dim_module, fit_binomial,
                      module_length, monomial_numerator, series_coefficient)
from .homology import is_unmixed, local_cohomology_lengths
from .modules import FreeModule, GradedModule
from .poly import monomials_of_degree


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

    @property
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
        rels += [free.basis(i).poly_mul(p) for p in self.ring_rels
                 for i in range(self.rank)]
        return module_length(GradedModule.from_relations(free, rels))

    @property
    def column_degrees(self):
        out = []
        for col in self.columns:
            degs = {e.total_degree() for e in col if not e.is_zero()}
            out.append(degs.pop())
        return out


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


def _ring_gb(pm: ParameterModule):
    amb = FreeModule(pm.ring, [0])
    return SubmoduleGB(amb, [amb.element([p]) for p in pm.ring_rels]), amb


def _nf_poly(p, gb, amb):
    if not gb.generators:
        return p
    v = gb.normal_form(amb.element([p]))
    return v.coordinates()[0]


def _products(pm: ParameterModule, n, gb, amb):
    """Degree-n products of the g_j as {T-exponent: poly}, with degrees."""
    ring = pm.ring
    base = []
    for j, col in enumerate(pm.columns):
        g = {}
        for i, e in enumerate(col):
            if not e.is_zero():
                alpha = tuple(1 if k == i else 0 for k in range(pm.rank))
                g[alpha] = e
        base.append(g)
    degs = pm.column_degrees
    out = {(): ({(0,) * pm.rank: ring.one()}, 0)}
    for _ in range(n):
        nxt = {}
        for key, (p, dp) in out.items():
            start = key[-1] if key else 0
            for j in range(start, pm.gens_count):
                nk = key + (j,)
                if nk in nxt:
                    continue
                q = {}
                for alpha, c in p.items():
                    for beta, e in base[j].items():
                        gamma = tuple(a + b for a, b in zip(alpha, beta))
                        cur = q.get(gamma)
                        prod = c * e
                        q[gamma] = prod if cur is None else cur + prod
                q = {a: _nf_poly(c, gb, amb) for a, c in q.items()}
                q = {a: c for a, c in q.items() if not c.is_zero()}
                nxt[nk] = (q, dp + degs[j])
        out = nxt
    return [(p, dp) for p, dp in out.values() if p]


def br_value(pm: ParameterModule, n: int) -> int:
    """λ(Fⁿ/Eⁿ).

    λ(F/E) < ∞ is certified first; then every λ(Fⁿ/Eⁿ) is finite, and
    since Fⁿ is generated in ring degree 0, the first ring degree in which
    Fⁿ/Eⁿ vanishes ends the sum.
    """
    if n == 0:
        return 0
    if pm.colength is None:
        raise BrimError("λ(F^%d/E^%d) is infinite: generators do not "
                        "have finite colength" % (n, n))
    ring = pm.ring
    fld = ring.field
    gb, amb = _ring_gb(pm)
    base = monomial_numerator([mon for (_, mon) in gb.leading_terms()])
    prods = _products(pm, n, gb, amb)
    nvars = ring.num_vars
    n_tmons = comb(n + pm.rank - 1, pm.rank - 1)

    def terms(p, mon):
        out = {}
        for alpha, c in p.items():
            red = _nf_poly(c.mul_monomial(mon, fld.one()), gb, amb)
            for m2, cc in red.terms.items():
                out[(alpha, m2)] = cc
        return out

    total = 0
    t = 0
    while True:
        dim_free = n_tmons * series_coefficient(base, nvars, t)
        rows = (terms(p, mon) for p, dp in prods
                for mon in monomials_of_degree(nvars, t - dp))
        left = dim_free - _RankTracker(fld).rank(rows, dim_free)
        total += left
        if left == 0:
            return total
        t += 1


@dataclass
class BRReport:
    table: list
    degree: int
    coefficients: list
    br: int
    br1: int
    equality_case: bool
    pointwise_bound_ok: bool


def br_coefficients(pm: ParameterModule, n_max=None) -> BRReport:
    """Fit of λ(Fⁿ/Eⁿ) in the binomial basis of degree d + r − 1."""
    deg = pm.base_dim + pm.rank - 1
    if n_max is None:
        n_max = deg + 8
    fit = fit_binomial(lambda n: br_value(pm, n), deg, 1, n_max)
    if fit is None:
        raise BrimError("Buchsbaum-Rim table did not stabilize within n <= %d"
                        % n_max)
    coeffs, values, _ = fit
    br, br1 = coeffs[0], coeffs[1]
    bound_ok = all(values[n] >= br * binom_poly(n - 1, deg)
                   for n in range(len(values)))
    eq = any(values[n] == br * binom_poly(n - 1, deg)
             for n in range(1, len(values)))
    if pm.is_parameter:
        assert br >= 1
        assert br1 <= 0, "br1 must be nonpositive on parameter modules"
        assert bound_ok, "pointwise Buchsbaum-Rim bound violated"
        if eq:
            assert all(values[n] == br * binom_poly(n - 1, deg)
                       for n in range(len(values))), \
                "equality at one n must propagate to all n"
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
    prof = local_cohomology_lengths(base)
    cm = prof.depth == prof.dim
    unm = is_unmixed(base)
    rep = br_coefficients(pm)
    alert = unm and rep.br1 == 0 and not cm
    return ConjectureProbe(is_cm=cm, unmixed=unm, br1=rep.br1, alert=alert)
