import pytest

from gradedca import koszul as kz
from gradedca.hilbert import make_parameter_ideal
from gradedca.modules import GradedModule
from gradedca.poly import CoeffField, PolyRing
from gradedca.sampler import SampleConfig, sample_parameter_ideals

RING = PolyRing(CoeffField(32003), ["x", "y"])
X, Y = RING.gens()


def test_regular_sequence_homology(free_plane):
    rep = kz.koszul_homology(free_plane, [X, Y])
    assert rep.lengths == [1, 0, 0]
    assert rep.chi1 == 0 and rep.chi == 1


def test_mixed_line_homology(mixed_line):
    rep = kz.koszul_homology(mixed_line, [Y])
    assert rep.lengths == [2, 1]
    assert rep.chi1 == 1
    assert kz.chi1_serre(mixed_line, [Y]) == 1


def test_two_plane_homology(two_plane, ring4):
    x, y, z, w = ring4.gens()
    rep = kz.koszul_homology(two_plane, [x + z, y + w])
    assert rep.lengths[0] == 3
    assert rep.chi1 == 1
    assert kz.chi1_serre(two_plane, [x + z, y + w]) == 1


def test_differential_squares_to_zero(two_plane, ring4):
    x, y, z, w = ring4.gens()
    d1 = kz.koszul_differential(two_plane, [x, y, z + w], 1)
    d2 = kz.koszul_differential(two_plane, [x, y, z + w], 2)
    d3 = kz.koszul_differential(two_plane, [x, y, z + w], 3)
    assert d1.compose(d2).is_zero()
    assert d2.compose(d3).is_zero()


def test_serre_equality_both_paths(two_plane, mixed_line, free_plane):
    cases = [(two_plane, SampleConfig(seed=2, count=3)),
             (mixed_line, SampleConfig(seed=3, count=3)),
             (free_plane, SampleConfig(seed=4, count=3))]
    for module, cfg in cases:
        for q in sample_parameter_ideals(module, cfg):
            hom = kz.koszul_homology(module, q.gens)
            assert hom.chi1 == kz.chi1_serre(module, q.gens)
            assert hom.lengths[0] == q.colength_certificate


def test_chi1_zero_iff_cm(free_plane, mixed_line):
    assert kz.koszul_homology(free_plane, [X, Y]).chi1 == 0
    assert kz.koszul_homology(mixed_line, [Y]).chi1 > 0


def test_recursion(free_plane, two_plane, ring4):
    rep = kz.chi1_recursion_check(free_plane, [X, Y])
    assert rep.passed and rep.total == 0
    x, y, z, w = ring4.gens()
    rep = kz.chi1_recursion_check(two_plane, [x + z, y + w])
    assert rep.passed and rep.total == 1


def test_recursion_with_zero_divisor(ring3):
    # y kills the socle element x of S/(x², xy, xz): 0:_M y = k, whose
    # Euler characteristic χ(z; k) = 0 enters, not its χ₁(z; k) = 1
    x, y, z = ring3.gens()
    m = GradedModule.quotient_ring(ring3, [x ** 2, x * y, x * z])
    rep = kz.chi1_recursion_check(m, [y, z])
    assert (rep.total, rep.from_quotient, rep.from_colon) == (1, 1, 0)
    assert rep.passed


def test_non_parameter_input_fails(free_plane):
    with pytest.raises(kz.KoszulError):
        kz.koszul_homology(free_plane, [X, X])
