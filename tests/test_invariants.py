import json
import os
import random

import pytest

from gradedca import gb as gbmod
from gradedca import invariants as inv
from gradedca.hilbert import dim_module, hilbert_coefficients, module_length
from gradedca.gb import SubmoduleGB, quotient_module
from gradedca.jobio import build_job
from gradedca.modules import GradedModule
from gradedca.poly import CoeffField, PolyRing
from gradedca.sampler import (SampleConfig, random_parameter_ideal,
                              sample_parameter_ideals)

from reference import colon_submodule, contains

RING2 = PolyRing(CoeffField(32003), ["x", "y"])
CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
CORPUS_MODULES = sorted(n[:-5] for n in os.listdir(CORPUS))


def test_hdeg_free_module(free_plane):
    q = [free_plane.ring.var(0), free_plane.ring.var(1)]
    rep = inv.hdeg_report(free_plane, q)
    assert rep.hdeg == 1 and rep.deg == 1 and rep.torsions[0] == 0


def test_hdeg_mixed_line(mixed_line):
    q = [mixed_line.ring.var(1)]
    rep = inv.hdeg_report(mixed_line, q)
    assert rep.hdeg == 2 and rep.deg == 1 and rep.torsions == []


def test_hdeg_two_plane(two_plane):
    ring = two_plane.ring
    x, y, z, w = ring.gens()
    q = [x + z, y + w]
    rep = inv.hdeg_report(two_plane, q)
    assert rep.hdeg == 3 and rep.deg == 2
    assert rep.torsions == [1]


def test_e1_torsion_bound_equality(two_plane):
    ring = two_plane.ring
    x, y, z, w = ring.gens()
    q = [x + z, y + w]
    rep = inv.check_e1_torsion_bound(two_plane, q)
    assert rep.passed and rep.lhs == rep.rhs == 1


def test_chi1_hdeg_bound_equality(two_plane):
    ring = two_plane.ring
    x, y, z, w = ring.gens()
    q = [x + z, y + w]
    rep = inv.check_chi1_hdeg_bound(two_plane, q)
    assert rep.passed and rep.lhs == rep.rhs == 1


def test_bounds_on_sampled_ideals(mixed_line, two_plane):
    cfg = SampleConfig(seed=5, count=4, degree_bounds=(1, 2))
    for q in sample_parameter_ideals(two_plane, cfg):
        assert inv.check_e1_torsion_bound(two_plane, list(q.gens)).passed
        assert inv.check_chi1_hdeg_bound(two_plane, list(q.gens)).passed
    for q in sample_parameter_ideals(mixed_line, cfg):
        assert inv.check_chi1_hdeg_bound(mixed_line, list(q.gens)).passed


def test_d_sequence_detection(free_plane, mixed_line):
    x, y = RING2.gens()
    assert inv.is_d_sequence(free_plane, [x, y])
    # y, x on k[x,y]/(x^2, x*y): y is a nonzerodivisor-ish first element
    mx, my = mixed_line.ring.gens()
    assert inv.is_d_sequence(mixed_line, [my])


def _reference_d_sequence(module, forms):
    """The colons presented by elimination and compared by two-way
    containment in their Groebner bases."""
    amb = module.ambient

    def same(a_gens, b_gens):
        ga, gb_ = SubmoduleGB(a_gens), SubmoduleGB(b_gens)
        return (all(contains(gb_, v) for v in ga.basis)
                and all(contains(ga, v) for v in gb_.basis))
    for i in range(len(forms)):
        base = module.relations() + amb.ideal_multiples(forms[:i])
        for k in range(i, len(forms)):
            if not same(colon_submodule(base, forms[i] * forms[k], amb),
                        colon_submodule(base, forms[k], amb)):
                return False
    return True


@pytest.mark.parametrize("name", CORPUS_MODULES)
def test_d_sequence_matches_elimination_reference(name, monkeypatch):
    with open(os.path.join(CORPUS, name + ".json")) as fh:
        module = build_job(json.load(fh)).module
    r = dim_module(module)
    rng = random.Random(name)
    # two seeded linear sops, and the first r variables in both orders,
    # which on mixed-line and plane-plus-line are no d-sequence
    cases = [list(random_parameter_ideal(module, [1] * r, rng).gens)
             for _ in range(2)]
    cases += [module.ring.gens()[:r], module.ring.gens()[:r][::-1]]
    expected = [_reference_d_sequence(module, forms) for forms in cases]

    def no_elimination(*args, **kwargs):
        raise AssertionError("is_d_sequence needs no colon module")
    monkeypatch.setattr(gbmod, "kernel_of_map", no_elimination)
    assert [inv.is_d_sequence(module, forms) for forms in cases] == expected


@pytest.mark.parametrize("name", CORPUS_MODULES)
def test_d_sequence_takes_m_itself_as_m0(name, monkeypatch):
    """M_0 is M: with M's basis built, is_d_sequence runs no second
    Buchberger on M's relations, and its colons by x_1 and x_1·x_k are the
    quotients of M that colon_series reads anyway."""
    with open(os.path.join(CORPUS, name + ".json")) as fh:
        module = build_job(json.load(fh)).module
    forms = list(module.ring.gens()[:dim_module(module)])
    runs = []
    original = gbmod._groebner

    def counted(base, gens, seed=None):
        runs.append(list(gens))
        return original(base, gens, seed)
    monkeypatch.setattr(gbmod, "_groebner", counted)
    inv.is_d_sequence(module, forms)
    assert module.relations() not in runs
    assert ("quotient_by_ideal", ()) not in module._cache


def test_hilbert_characteristic_equals_colength(free_plane, mixed_line,
                                                two_plane):
    rng = random.Random(3)
    for module in (free_plane, mixed_line, two_plane):
        cfg = SampleConfig(seed=rng.randrange(10**6), count=3,
                           degree_bounds=(1, 1))
        for q in sample_parameter_ideals(module, cfg):
            gens = list(q.gens)
            if not inv.is_d_sequence(module, gens):
                continue
            hx = inv.hilbert_characteristic(module, gens)
            assert hx == module_length(quotient_module(module, [
                module.ambient.basis(i).poly_mul(g)
                for g in gens for i in range(module.ambient.rank)]))


def test_betti_bound(free_plane, mixed_line, two_plane):
    rng = random.Random(9)
    for module in (mixed_line, two_plane):
        cfg = SampleConfig(seed=17, count=4, degree_bounds=(1, 1))
        for q in sample_parameter_ideals(module, cfg):
            gens = list(q.gens)
            if not inv.is_d_sequence(module, gens):
                continue
            rep = inv.betti_bound_check(module, gens)
            assert rep.passed


def test_classify_labels(free_plane, mixed_line, two_plane, plane_plus_line):
    def ideals(module, n=8):
        cfg = SampleConfig(seed=2, count=n, degree_bounds=(1, 2))
        return [list(q.gens) for q in sample_parameter_ideals(module, cfg)]

    assert inv.classify(free_plane, ideals(free_plane)) == "cohen-macaulay"
    assert inv.classify(two_plane, ideals(two_plane)) == "buchsbaum (sampled)"
    assert inv.classify(plane_plus_line, ideals(plane_plus_line)) == "general"


def test_buchsbaum_invariant(two_plane, mixed_line, plane_plus_line):
    i_m, bound = inv.buchsbaum_invariant(two_plane)
    assert i_m == 1 and bound >= i_m
    i_m2, _ = inv.buchsbaum_invariant(mixed_line)
    assert i_m2 == 1
    none_i, none_b = inv.buchsbaum_invariant(plane_plus_line)
    assert none_i is None and none_b is None


def test_standardness_biconditional(two_plane):
    cfg = SampleConfig(seed=4, count=10)
    ideals = [list(q.gens) for q in sample_parameter_ideals(two_plane, cfg)]
    data = inv.standardness_data(two_plane, ideals)
    assert data.I_M == 1
    for s in data.samples:
        assert s.is_standard == (s.deviation == data.I_M)
    assert data.all_standard()
    assert {s.e1 for s in data.samples} == {-1}


def test_multiplicity_dim_zero():
    x, y = RING2.gens()
    m = GradedModule.quotient_ring(RING2, [x ** 2, y ** 3])
    assert inv.multiplicity(m, [x, y]) == module_length(m) == 6
