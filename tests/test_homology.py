import json
import os
import random

import pytest

from gradedca import gb
from gradedca import homology as hm
from gradedca.hilbert import (NEG_INF, dim_module, hilbert_series,
                              module_length, series_dim, series_length,
                              shifted_sum)
from gradedca.jobio import build_job
from gradedca.modules import GradedModule
from gradedca.poly import CoeffField, PolyRing

from reference import reference_unmixed_series

RING = PolyRing(CoeffField(32003), ["x", "y"])
X, Y = RING.gens()
CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
CORPUS_MODULES = sorted(n[:-5] for n in os.listdir(CORPUS))


def _corpus_raw(name):
    with open(os.path.join(CORPUS, name + ".json")) as fh:
        return json.load(fh)


def _corpus_module(name, char):
    raw = _corpus_raw(name)
    raw["ring"]["characteristic"] = char
    return build_job(raw).module


def _quotient_series(module, u):
    """HS(M/U) = HS(M) − HS(U), from 0 → U → M → M/U → 0."""
    return shifted_sum([(1, 0, hilbert_series(module)), (-1, 0, u)])


def test_free_module_profile(free_plane):
    prof = hm.local_cohomology_lengths(free_plane)
    assert prof.h == [0, 0] and prof.depth == 2 and prof.dim == 2


def test_mixed_line_profile(mixed_line):
    prof = hm.local_cohomology_lengths(mixed_line)
    assert prof.h == [1] and prof.depth == 0
    assert module_length(hm.ext_dual(mixed_line, 0)) == 1


def test_two_plane_profile(two_plane):
    prof = hm.local_cohomology_lengths(two_plane)
    assert prof.h == [0, 1] and prof.depth == 1
    assert module_length(hm.ext_dual(two_plane, 1)) == 1
    assert gb.is_zero_module(hm.ext_dual(two_plane, 0))


def test_free_duals_vanish(free_plane):
    for j in range(2):
        assert gb.is_zero_module(hm.ext_dual(free_plane, j))


def test_dual_dimension_bound(free_plane, mixed_line, two_plane,
                              plane_plus_line, dim3_buchsbaum):
    for module in (free_plane, mixed_line, two_plane, plane_plus_line,
                   dim3_buchsbaum):
        r = dim_module(module)
        for j in range(r + 1):
            dj = dim_module(hm.ext_dual(module, j))
            assert dj == NEG_INF or dj <= j


def test_depth_two_paths_agree(free_plane, mixed_line, two_plane,
                               plane_plus_line, dim3_buchsbaum):
    for module in (free_plane, mixed_line, two_plane, plane_plus_line,
                   dim3_buchsbaum):
        assert hm.depth(module) == gb.depth(module)


def test_unmixed_component_oracles(free_plane, mixed_line, two_plane):
    u = hm.unmixed_component(mixed_line)
    assert series_length(u, 2) == 1
    assert series_dim(_quotient_series(mixed_line, u), 2) == 1
    assert hm.is_unmixed(free_plane)
    assert hm.is_unmixed(two_plane)
    assert not hm.is_unmixed(mixed_line)


def test_unmixed_component_of_direct_sum():
    a = GradedModule.quotient_ring(RING, [X])
    b = GradedModule.quotient_ring(RING, [X, Y])
    ds = a.direct_sum(b)
    u = hm.unmixed_component(ds)
    assert series_dim(u, 2) == 0 and series_length(u, 2) == 1
    assert series_dim(_quotient_series(ds, u), 2) == 1
    assert not hm.is_unmixed(ds)


def _three_sum(char):
    """S/(x) ⊕ S/(x,y) ⊕ S/(x,y,z): U is the last two summands, of
    dimensions 1 and 0, so two duals enter the form that cuts U out."""
    ring = PolyRing(CoeffField(char), ["x", "y", "z"])
    x, y, z = ring.gens()
    a, b, c = (GradedModule.quotient_ring(ring, gens)
               for gens in ([x], [x, y], [x, y, z]))
    return a.direct_sum(b).direct_sum(c)


@pytest.mark.parametrize("char", [32003, None])
@pytest.mark.parametrize("name", CORPUS_MODULES + ["three-sum"])
def test_ext_criterion_matches_the_unmixed_component(name, char):
    # U = 0 exactly when no dual M_j, j < dim M, reaches dimension j, and
    # U has the largest such j as its dimension; the complete-intersection
    # biduality gives the same HS(U)
    module = (_three_sum(char) if name == "three-sum"
              else _corpus_module(name, char))
    u = hm.unmixed_component(module)
    assert u == reference_unmixed_series(module)
    assert hm.is_unmixed(module) == (not u)
    prof = hm.local_cohomology_lengths(module)
    top = max((j for j in range(len(prof.series) - 1)
               if series_dim(prof.series[j], prof.n) == j), default=NEG_INF)
    assert series_dim(u, module.ring.num_vars) == top


def _depth_zero(char):
    """S/(x², xy, xz), whose top Koszul homology does not vanish."""
    ring = PolyRing(CoeffField(char), ["x", "y", "z"])
    x, y, z = ring.gens()
    return GradedModule.quotient_ring(ring, [x ** 2, x * y, x * z])


def _depth_zero_plus_field(char):
    """S/(x², xy, xz) ⊕ S/(x, y, z): depth 0 from two summands."""
    module = _depth_zero(char)
    return module.direct_sum(GradedModule.quotient_ring(module.ring,
                                                        module.ring.gens()))


PROFILE_CASES = {"three-sum": _three_sum, "depth-zero": _depth_zero,
                 "depth-zero+k": _depth_zero_plus_field}


@pytest.mark.parametrize("char", [32003, None])
@pytest.mark.parametrize("name", CORPUS_MODULES + sorted(PROFILE_CASES))
def test_profile_series_are_the_series_of_the_ext_modules(name, char):
    """The series read off the dual resolution's cokernels equal those of
    the Ext modules built by elimination, for k = 0..n, and the profile
    holds them as its duals' series."""
    module = (PROFILE_CASES[name](char) if name in PROFILE_CASES
              else _corpus_module(name, char))
    n = module.ring.num_vars
    want = [hilbert_series(hm.ext_module(module, k)) for k in range(n + 1)]
    assert [hm.ext_series(module, k) for k in range(n + 1)] == want
    prof = hm.local_cohomology_lengths(module)
    assert len(prof.series) == dim_module(module) + 1
    assert prof.series == [want[n - j] for j in range(len(prof.series))]


def test_generalized_cm(free_plane, mixed_line, two_plane, plane_plus_line):
    assert hm.is_generalized_cm(free_plane)
    assert hm.is_generalized_cm(mixed_line)
    assert hm.is_generalized_cm(two_plane)
    assert not hm.is_generalized_cm(plane_plus_line)


def test_unmixed_dim2_has_finite_h1(two_plane, dim3_buchsbaum):
    # unmixed with dim >= 2 forces a finite first cohomology
    for module in (two_plane, dim3_buchsbaum):
        assert hm.is_unmixed(module)
        prof = hm.local_cohomology_lengths(module)
        assert prof.h[1] is not None


def test_zero_module_conventions():
    zero = GradedModule.quotient_ring(RING, [RING.one()])
    prof = hm.local_cohomology_lengths(zero)
    assert prof.depth == hm.POS_INF and prof.dim == NEG_INF and prof.h == []
    assert hm.is_unmixed(zero)


def test_vanishing_coefficients_force_vanishing_cohomology(free_plane):
    # e_i = 0 for all i >= 1 on the free module: top-adjacent h's vanish
    prof = hm.local_cohomology_lengths(free_plane)
    assert all(v == 0 for v in prof.h)


def test_cohen_macaulay_module_is_unmixed_without_its_component(monkeypatch):
    # three generic quadrics: a complete intersection, so CM and unmixed
    ring = PolyRing(CoeffField(32003), ["a", "b", "c", "d", "e"])
    rng = random.Random(1)
    module = GradedModule.quotient_ring(
        ring, [ring.random_form(2, rng) for _ in range(3)])

    def no_component(*args, **kwargs):
        raise AssertionError("a CM module needs no unmixed component")
    monkeypatch.setattr(hm, "unmixed_component", no_component)
    assert hm.is_cohen_macaulay(module)
    assert hm.is_unmixed(module)


@pytest.mark.parametrize("name", CORPUS_MODULES)
def test_is_unmixed_builds_no_component(name, monkeypatch):
    # CM and non-CM modules alike: the answer comes from the Ext duals
    def no_component(*args, **kwargs):
        raise AssertionError("is_unmixed needs no unmixed component")
    monkeypatch.setattr(hm, "unmixed_component", no_component)
    claims = _corpus_raw(name)["claims"]
    module = _corpus_module(name, 32003)
    # ci-points, of dimension 0, carries no claim: such a module is unmixed
    assert hm.is_unmixed(module) == claims.get("unmixed", claims["dim"] == 0)
