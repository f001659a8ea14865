"""Homological degree, torsions, Buchsbaum data, d-sequences and the
Hilbert characteristic."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .gb import GBError, betti_numbers, quotient_by_ideal
from .hilbert import (NEG_INF, colength, colon_series, dim_module,
                      hilbert_coefficients, module_length)
from .homology import ext_dual, local_cohomology_lengths
from .koszul import chi1_serre
from .modules import GradedModule, memoized
from .poly import require


class InvariantError(GBError):
    pass


def multiplicity(module: GradedModule, q_gens) -> int:
    """e₀ of the Q-adic filtration, fitted at the dimension of the module."""
    r = dim_module(module)
    if r == NEG_INF:
        return 0
    if r == 0:
        return module_length(module)
    return hilbert_coefficients(module, q_gens).e[0]


@memoized(forms=frozenset)
def hdeg(module: GradedModule, q_gens) -> int:
    """Homological degree: e₀ plus binomially weighted hdeg of the duals."""
    r = dim_module(module)
    if r <= 0:
        return module_length(module)  # 0 for the zero module
    return multiplicity(module, q_gens) + sum(
        comb(r - 1, j) * hdeg(ext_dual(module, j), q_gens) for j in range(r))


def torsion(module: GradedModule, q_gens, i: int) -> int:
    """T^(i): binomially weighted hdeg of the positive duals."""
    r = dim_module(module)
    if not (1 <= i <= r - 1):
        raise InvariantError("torsion index must satisfy 1 <= i <= dim-1")
    return sum(comb(r - i - 1, j - 1) * hdeg(ext_dual(module, j), q_gens)
               for j in range(1, r - i + 1))


@dataclass
class HdegReport:
    hdeg: int
    deg: int
    torsions: list


def hdeg_report(module: GradedModule, q_gens) -> HdegReport:
    r = dim_module(module)
    h = hdeg(module, q_gens)
    d = multiplicity(module, q_gens)
    ts = [torsion(module, q_gens, i) for i in range(1, max(r, 1))]
    require(h >= d, "hdeg must be at least the multiplicity")
    if ts:
        require(h > ts[0] or h == d == module_length(module),
                "hdeg must exceed the first torsion invariant")
        require(all(a >= b for a, b in zip(ts, ts[1:])),
                "torsion invariants must be nonincreasing")
    return HdegReport(hdeg=h, deg=d, torsions=ts)


@dataclass
class BoundReport:
    passed: bool
    lhs: int
    rhs: int


def check_e1_torsion_bound(module: GradedModule, q_gens) -> BoundReport:
    """−e₁(Q,M) ≤ T^(1)(M), both sides computed independently."""
    e1 = hilbert_coefficients(module, q_gens).e[1]
    t1 = torsion(module, q_gens, 1)
    return BoundReport(passed=(-e1 <= t1), lhs=-e1, rhs=t1)


def check_chi1_hdeg_bound(module: GradedModule, q_gens) -> BoundReport:
    """χ₁(Q;M) ≤ hdeg_Q(M) − deg_Q(M)."""
    chi1 = chi1_serre(module, q_gens)
    h = hdeg(module, q_gens)
    d = multiplicity(module, q_gens)
    return BoundReport(passed=(chi1 <= h - d), lhs=chi1, rhs=h - d)


# ---------------------------------------------------------------------------
# d-sequences and the Hilbert characteristic


def is_d_sequence(module: GradedModule, forms) -> bool:
    """((x₁..x_i)M : x_{i+1}x_k) = ((x₁..x_i)M : x_k) for all i < k.

    In M_i = M/(x₁..x_i)M they are 0 :_{M_i} x_{i+1}x_k ⊇ 0 :_{M_i} x_k, equal
    exactly when their series (hilbert.colon_series) are.
    """
    for i in range(len(forms)):
        mi = module if i == 0 else quotient_by_ideal(module, forms[:i])
        for k in range(i, len(forms)):
            a, b = (colon_series(mi, h)
                    for h in (forms[i] * forms[k], forms[k]))
            if a != b:
                return False
    return True


def hilbert_characteristic(module: GradedModule, q_gens) -> int:
    """Alternating sum Σ (−1)^i e_i of the fitted coefficients."""
    e = hilbert_coefficients(module, q_gens).e
    return sum((-1) ** i * v for i, v in enumerate(e))


@dataclass
class BettiBoundReport:
    passed: bool
    betti: list
    colength: int
    field_betti: list


def betti_bound_check(module: GradedModule, forms) -> BettiBoundReport:
    """β_i(M) ≤ λ(M/(x)M)·β_i(k) with β_i(k) = binom(d, i)."""
    betti = betti_numbers(module)
    lam = colength(module, forms)
    d = module.ring.num_vars
    fb = [comb(d, i) for i in range(len(betti))]
    ok = all(b <= lam * f for b, f in zip(betti, fb))
    return BettiBoundReport(passed=ok, betti=betti, colength=lam, field_betti=fb)


# ---------------------------------------------------------------------------
# Buchsbaum data and classification


@dataclass
class StandardnessSample:
    q_gens: tuple
    deviation: int  # λ(M/QM) − e₀(Q,M)
    e1: int
    is_standard: bool


@dataclass
class BuchsbaumData:
    I_M: int
    bound_s: int
    samples: list

    def all_standard(self):
        return all(s.is_standard for s in self.samples)


def buchsbaum_invariant(module: GradedModule):
    """(I(M), s(M)) from the cohomology profile; None when not genCM or
    for the zero module."""
    prof = local_cohomology_lengths(module)
    r = prof.dim
    if r == NEG_INF or not prof.finite_below_top():
        return None, None
    i_m = sum(comb(r - 1, i) * prof.h[i] for i in range(r))
    bound_s = sum(comb(r - 2, i - 1) * prof.h[i] for i in range(1, r)) if r >= 2 \
        else (prof.h[0] if r == 1 else 0)
    return i_m, bound_s


def standardness_data(module: GradedModule, ideals) -> BuchsbaumData:
    """Deviation λ(M/QM) − e₀ for each sampled parameter ideal."""
    i_m, bound_s = buchsbaum_invariant(module)
    samples = []
    for q in ideals:
        lam = colength(module, q)
        hc = hilbert_coefficients(module, q)
        dev = lam - hc.e[0]
        e1 = hc.e[1] if len(hc.e) > 1 else 0
        samples.append(StandardnessSample(
            q_gens=tuple(q), deviation=dev, e1=e1,
            is_standard=(i_m is not None and dev == i_m)))
    return BuchsbaumData(I_M=i_m, bound_s=bound_s, samples=samples)


def classify(module: GradedModule, ideals) -> str:
    """CM / Buchsbaum (sampled) / generalized CM / general, by sampling."""
    prof = local_cohomology_lengths(module)
    if prof.is_cohen_macaulay:
        return "cohen-macaulay"
    if not prof.finite_below_top():
        return "general"
    data = standardness_data(module, ideals)
    if data.all_standard():
        return "buchsbaum (sampled)"
    return "generalized cohen-macaulay"
