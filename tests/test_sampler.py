import random

import pytest

from gradedca import brim, sampler
from gradedca.hilbert import dim_module
from gradedca.modules import GradedModule
from gradedca.poly import CoeffField, PolyRing

RING2 = PolyRing(CoeffField(32003), ["x", "y"])


def test_determinism(two_plane):
    cfg = sampler.SampleConfig(seed=12, count=6)
    a = sampler.sample_parameter_ideals(two_plane, cfg)
    # a fresh module has no memoized sample, so this draws again
    b = sampler.sample_parameter_ideals(
        GradedModule(two_plane.presentation), cfg)
    assert [tuple(map(repr, q.gens)) for q in a] == \
           [tuple(map(repr, q.gens)) for q in b]
    other = sampler.sample_parameter_ideals(
        two_plane, sampler.SampleConfig(seed=13, count=6))
    assert [tuple(map(repr, q.gens)) for q in a] != \
           [tuple(map(repr, q.gens)) for q in other]


def test_sample_is_drawn_once_per_module_and_config(two_plane):
    cfg = sampler.SampleConfig(seed=12, count=6)
    a = sampler.sample_parameter_ideals(two_plane, cfg)
    assert sampler.sample_parameter_ideals(
        two_plane, sampler.SampleConfig(seed=12, count=6)) is a
    assert sampler.sample_parameter_ideals(
        two_plane, sampler.SampleConfig(seed=12, count=5)) == a[:5]


def test_sampled_ideals_are_parameters(mixed_line, two_plane):
    for module in (mixed_line, two_plane):
        cfg = sampler.SampleConfig(seed=3, count=5)
        for q in sampler.sample_parameter_ideals(module, cfg):
            assert q.colength_certificate >= 1
            assert all(g.is_homogeneous() for g in q.gens)


def test_estimate_lambda_buchsbaum(two_plane):
    est = sampler.estimate_lambda(
        two_plane, sampler.SampleConfig(seed=7, count=8))
    assert est.distinct == [-1] and est.min == est.max == -1
    assert "degree-bounded sample" in est.label


def test_estimate_xi_nonnegative(two_plane, mixed_line):
    for module in (two_plane, mixed_line):
        est = sampler.estimate_xi(
            module, sampler.SampleConfig(seed=8, count=5))
        assert est.min >= 0


def test_lambda_sweep_unbounded(plane_plus_line):
    ring = plane_plus_line.ring
    x, y, z = ring.gens()
    sweep = sampler.lambda_sweep(plane_plus_line, [x + y, z], [1, 2, 3, 4])
    assert sweep == [(1, -1), (2, -2), (3, -3), (4, -4)]


def test_wrong_generator_count_fails(two_plane):
    rng = sampler.SampleConfig(seed=1).rng()
    with pytest.raises(Exception):
        sampler.random_parameter_ideal(two_plane, [1], rng)


def test_random_parameter_module_shape():
    rng = sampler.SampleConfig(seed=21).rng()
    pm = sampler.random_parameter_module(RING2, [], 2, rng)
    assert pm.gens_count == 3 and pm.rank == 2 and pm.is_parameter


def _reference_parameter_module(ring, ring_rels, rank, rng):
    """The sampler as it was: a draw is kept when λ(F/E) = br_value(pm, 1)
    can be counted."""
    d = dim_module(GradedModule.quotient_ring(ring, list(ring_rels)))
    for _ in range(50):
        cols = [[ring.random_form(1, rng) for _ in range(rank)]
                for _ in range(d + rank - 1)]
        try:
            pm = brim.make_parameter_module(ring, ring_rels, cols)
            brim.br_value(pm, 1)
            return pm
        except brim.BrimError:
            continue


@pytest.mark.parametrize("char", [3, 5, 32003])
def test_random_parameter_module_keeps_the_draws_it_kept(char):
    # over a small field many draws have infinite colength and are retried
    ring = PolyRing(CoeffField(char), ["x", "y"])
    x, y = ring.gens()
    for rels, rank in (([], 2), ([x * y], 2), ([], 3)):
        got_rng, ref_rng = random.Random(char), random.Random(char)
        for _ in range(4):
            got = sampler.random_parameter_module(ring, rels, rank, got_rng)
            ref = _reference_parameter_module(ring, rels, rank, ref_rng)
            assert got == ref and got.colength == brim.br_value(got, 1)
        assert got_rng.random() == ref_rng.random()


def test_zero_module_has_no_parameter_ideals():
    zero = GradedModule.quotient_ring(RING2, [RING2.one()])
    with pytest.raises(sampler.SamplerError):
        sampler.sample_parameter_ideals(zero, sampler.SampleConfig(count=1))
    with pytest.raises(sampler.SamplerError):
        sampler.random_parameter_ideal(zero, [], random.Random(1))
