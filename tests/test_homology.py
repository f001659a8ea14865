import random

from gradedca import gb
from gradedca import homology as hm
from gradedca.hilbert import NEG_INF, dim_module, module_length
from gradedca.modules import GradedModule
from gradedca.poly import CoeffField, PolyRing

RING = PolyRing(CoeffField(32003), ["x", "y"])
X, Y = RING.gens()


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
    u, n = hm.unmixed_component(mixed_line)
    assert module_length(u) == 1 and dim_module(n) == 1
    assert hm.is_unmixed(free_plane)
    assert hm.is_unmixed(two_plane)
    assert not hm.is_unmixed(mixed_line)


def test_unmixed_component_of_direct_sum():
    a = GradedModule.quotient_ring(RING, [X])
    b = GradedModule.quotient_ring(RING, [X, Y])
    ds = a.direct_sum(b)
    u, n = hm.unmixed_component(ds)
    assert dim_module(u) == 0 and module_length(u) == 1
    assert dim_module(n) == 1
    assert not hm.is_unmixed(ds)


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
