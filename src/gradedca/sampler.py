"""Seeded random parameter ideals and sample estimates of Λ(M) and Ξ(M).

Λ and Ξ quantify over all parameter ideals; everything here is a
degree-bounded sample estimate and is labeled as such.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .brim import BrimError, make_parameter_module
from .gb import GBError
from .hilbert import (NEG_INF, HilbertError, ParameterIdeal, dim_module,
                      hilbert_coefficients, make_parameter_ideal)
from .koszul import chi1_serre
from .modules import GradedModule, memoized
from .poly import require


IDEAL_TRIES = 50  # draws of a parameter ideal before giving up
MODULE_TRIES = 50  # draws of a parameter module before giving up


class SamplerError(GBError):
    pass


@dataclass(frozen=True)
class SampleConfig:
    seed: int = 1
    count: int = 25
    degree_bounds: tuple = (1, 2)

    def rng(self):
        return random.Random(self.seed)


def random_parameter_ideal(module: GradedModule, degrees, rng) -> ParameterIdeal:
    """Random forms of the given degrees, retried until the quotient is
    Artinian."""
    r = dim_module(module)
    if len(degrees) != r:
        raise SamplerError("need %s degrees for a parameter ideal, got %s"
                           % (r, len(degrees)))
    ring = module.ring
    for _ in range(IDEAL_TRIES):
        gens = [ring.random_form(d, rng) for d in degrees]
        if any(g.is_zero() for g in gens):
            continue
        try:
            return make_parameter_ideal(module, gens)
        except HilbertError:
            continue
    raise SamplerError("failed to sample a parameter ideal in %d tries "
                       "(degenerate module or field too small)" % IDEAL_TRIES)


@memoized()
def sample_parameter_ideals(module: GradedModule, cfg: SampleConfig):
    """cfg.count parameter ideals with degrees drawn from degree_bounds,
    drawn once per module and config: a tuple every caller shares."""
    rng = cfg.rng()
    r = dim_module(module)
    if r == NEG_INF:
        raise SamplerError("the zero module has no parameter ideals")
    out = []
    for _ in range(cfg.count):
        degrees = [rng.choice(list(cfg.degree_bounds)) for _ in range(r)]
        out.append(random_parameter_ideal(module, degrees, rng))
    return tuple(out)


@dataclass
class LambdaEstimate:
    label: str
    values: list
    distinct: list
    min: int
    max: int


def _estimate(label, module, cfg, value_of) -> LambdaEstimate:
    values = [value_of(q) for q in sample_parameter_ideals(module, cfg)]
    return LambdaEstimate(label=label, values=values,
                          distinct=sorted(set(values)),
                          min=min(values), max=max(values))


def estimate_lambda(module: GradedModule, cfg: SampleConfig) -> LambdaEstimate:
    """Sampled estimate of Λ(M) = {e₁(Q,M)}."""
    def e1(q):
        e = hilbert_coefficients(module, q.gens).e
        return e[1] if len(e) > 1 else 0
    est = _estimate("lambda-estimate (degree-bounded sample)", module, cfg, e1)
    require(est.max <= 0, "sampled e1 must be nonpositive")
    return est


def estimate_xi(module: GradedModule, cfg: SampleConfig) -> LambdaEstimate:
    """Sampled estimate of Ξ(M) = {χ₁(Q;M)}."""
    est = _estimate("xi-estimate (degree-bounded sample)", module, cfg,
                    lambda q: chi1_serre(module, q.gens))
    require(est.min >= 0, "sampled chi1 must be nonnegative")
    return est


def lambda_sweep(module: GradedModule, base_sop, powers):
    """e₁ of Q_ℓ = (x₁^ℓ, x₂, …, x_r) for each ℓ: the growth mechanism
    behind unboundedness of Λ on modules with a big lower-dimensional
    component."""
    out = []
    first, rest = base_sop[0], list(base_sop[1:])
    for ell in powers:
        gens = [first ** ell] + rest
        q = make_parameter_ideal(module, gens)
        e = hilbert_coefficients(module, q.gens).e
        out.append((ell, e[1] if len(e) > 1 else 0))
    return out


def random_parameter_module(ring, ring_rels, rank, rng):
    """A sampled parameter module: d + r − 1 random columns of linear forms
    with finite colength."""
    base = GradedModule.quotient_ring(ring, list(ring_rels))
    d = dim_module(base)
    m = d + rank - 1
    for _ in range(MODULE_TRIES):
        cols = [[ring.random_form(1, rng) for _ in range(rank)]
                for _ in range(m)]
        try:
            pm = make_parameter_module(ring, ring_rels, cols)
        except BrimError:
            continue
        if pm.colength is not None:
            return pm
    raise SamplerError("failed to sample a parameter module in %d tries"
                       % MODULE_TRIES)
