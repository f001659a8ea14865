"""Koszul homology of a system of parameters, and partial Euler characteristics.

Koszul homology is offered for a system of parameters x = x1..xr of M
alone: r = dim M forms with λ(M/xM) finite.  Such an x is S-regular, so
H_i(x; M) = Tor_i^S(S/(x), M).  Proof: take a minimal prime P of (x) with
ht P = ht(x), and a minimal prime P′ of ann M with dim S/P′ = dim M.  The
only prime containing P + P′ is m, since (x) + ann M is m-primary, so
Serre's intersection inequality in the regular local ring S_m gives
n ≤ ht P + ht P′ = ht(x) + (n − dim M), that is ht(x) ≥ r; Krull's height
theorem gives ht(x) ≤ r.  In the Cohen-Macaulay ring S, r forms that
generate an ideal of height r are a regular sequence.  So the Koszul
complex K(x; S) resolves S/(x), and H(x; M) = H(K(x; S) ⊗ M) is Tor.

The lengths come in three steps, and no Koszul complex is built:
- The longest M-regular prefix x1..xk with k < r is found by colon_series
  on the nested quotients M_i = M/(x1..xi)M: xi+1 is M_i-regular exactly
  when the series of 0 :_{M_i} xi+1 is empty.
- A regular x1 gives H_i(x; M) = H_i(x′; M/x1M) and H_r(x; M) = 0 (Bruns
  and Herzog, Cohen-Macaulay Rings, 1.6).  So when k ≥ r − 1 the lengths
  are read off series alone: λ(M/xM), λ(0 :_{M_{r−1}} xr), then zeros;
  for r = 0 the one length is λ(M).
- Otherwise homology.tor_series reads them off the minimal resolution of
  M itself, modulo (x).
"""

from __future__ import annotations

from dataclasses import dataclass

from .gb import GBError, quotient_by_ideal
from .hilbert import (colength, colon_series, dim_module, divide_poles,
                      hilbert_coefficients, module_length, series_length,
                      shifted_sum)
from .homology import tor_series
from .modules import GradedModule, memoized
from .poly import require


class KoszulError(GBError):
    pass


@dataclass
class KoszulHomologyReport:
    lengths: list
    chi: int
    chi1: int


def _finite_length(num, n):
    """λ of a Koszul homology module with HS = num/(1−t)^n."""
    j, h = divide_poles(num, n)
    require(j == n, "Koszul homology of a system of parameters has finite length")
    require(all(c >= 0 for c in h.values()),
            "a Koszul homology module has negative dimension in a degree")
    return sum(h.values())


@memoized(forms=tuple)
def koszul_homology(module: GradedModule, forms) -> KoszulHomologyReport:
    """Lengths of H_i(x; M) for i = 0..r, with χ and χ₁, for a system of
    parameters x of M, kept on M per x in order; KoszulError when x is not
    one.  x may be any iterable: memoized passes it on as a tuple."""
    r, n = len(forms), module.ring.num_vars
    for f in forms:
        if f.is_zero() or not f.is_homogeneous():
            raise KoszulError("Koszul forms must be nonzero homogeneous")
    top = quotient_by_ideal(module, forms) if r else module
    if dim_module(module) != r or module_length(top) is None:
        raise KoszulError("Koszul homology needs a system of parameters of M: "
                          "dim M forms x with λ(M/xM) finite")
    # the longest M-regular prefix x1..xk, k < r, and M_k = M/(x1..xk)M
    k, m_k = 0, module
    while k < r - 1:
        if colon_series(m_k, forms[k]):
            break
        k, m_k = k + 1, quotient_by_ideal(module, forms[:k + 1])
    if k >= r - 1:
        lengths = [module_length(top)]
        if r:
            colon = colon_series(m_k, forms[-1])
            lengths += [_finite_length(colon, n)] + [0] * (r - 1)
    else:
        lengths = [_finite_length(num, n) for num in tor_series(module, forms)]
    chi = sum((-1) ** i * l for i, l in enumerate(lengths))
    chi1 = sum((-1) ** (i - 1) * l for i, l in enumerate(lengths) if i >= 1)
    require(chi1 >= 0, "partial Euler characteristic must be nonnegative")
    return KoszulHomologyReport(lengths=lengths, chi=chi, chi1=chi1)


def chi1_serre(module: GradedModule, q_gens) -> int:
    """λ(M/QM) − e₀(Q,M); agrees with the homological χ₁."""
    lam = colength(module, q_gens)
    e = hilbert_coefficients(module, q_gens).e
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
    Euler characteristic.  When x₁ is M-regular, H_i(x;M) = H_i(x′;M/x₁M)
    (Bruns and Herzog 1.6) and 0:_M x₁ = 0, so the report is
    (total, total, 0) with nothing more computed; only a zero divisor x₁
    asks for the Koszul homology of M/x₁M.
    """
    if len(forms) < 2:
        raise KoszulError("recursion check needs at least two forms")
    x1, rest = forms[0], forms[1:]
    total = koszul_homology(module, forms).chi1
    num = colon_series(module, x1)
    if not num:
        return Chi1RecursionReport(passed=True, total=total,
                                   from_quotient=total, from_colon=0)
    a = koszul_homology(quotient_by_ideal(module, [x1]), rest).chi1
    # χ(x′; 0:_M x₁) is the value at 1 of HS(0:_M x₁)·∏_{x∈x′}(1 − t^deg x)
    for f in rest:
        num = shifted_sum([(1, 0, num), (-1, f.total_degree(), num)])
    b = series_length(num, module.ring.num_vars)
    require(b is not None, "x′ is a system of parameters on 0:_M x₁")
    require(b >= 0, "χ(x′; 0:_M x₁) = e(x′; 0:_M x₁) or 0, never negative")
    return Chi1RecursionReport(passed=(total == a + b), total=total,
                               from_quotient=a, from_colon=b)
