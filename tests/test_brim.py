import random

import pytest

from gradedca import brim
from gradedca.hilbert import hilbert_coefficients
from gradedca.modules import GradedModule
from gradedca.poly import CoeffField, PolyRing
from gradedca.sampler import random_parameter_module

RING1 = PolyRing(CoeffField(32003), ["x"])
RING2 = PolyRing(CoeffField(32003), ["x", "y"])


def test_ideal_case_oracle():
    # E = (x) in k[x] as a rank-1 parameter module: λ(R/x^n) = n
    x = RING1.var(0)
    pm = brim.make_parameter_module(RING1, [], [[x]])
    assert [brim.br_value(pm, n) for n in range(1, 5)] == [1, 2, 3, 4]
    rep = brim.br_coefficients(pm)
    assert rep.degree == 1 and rep.br == 1 and rep.br1 == 0


def test_diagonal_oracle():
    # E = x·F ⊂ F = R^2, R = k[x]: λ(F^n/E^n) = n(n+1)
    x = RING1.var(0)
    pm = brim.make_parameter_module(RING1, [], [[x, RING1.zero()],
                                                [RING1.zero(), x]])
    assert [brim.br_value(pm, n) for n in range(1, 4)] == [2, 6, 12]
    rep = brim.br_coefficients(pm)
    assert rep.degree == 2 and rep.br == 2 and rep.br1 == 0
    assert rep.equality_case and rep.pointwise_bound_ok


def test_square_gives_negative_br1_path():
    # E = (x^2): λ(R/x^{2n}) = 2n, coefficients (2, 0) in degree 1
    x = RING1.var(0)
    pm = brim.make_parameter_module(RING1, [], [[x * x]])
    rep = brim.br_coefficients(pm)
    assert rep.degree == 1 and rep.br == 2 and rep.br1 == 0


def test_full_maximal_ideal():
    # E = (x, y) in k[x, y]: br = e_0(m) = 1
    x, y = RING2.gens()
    pm = brim.make_parameter_module(RING2, [], [[x], [y]])
    rep = brim.br_coefficients(pm)
    assert rep.degree == 2 and rep.br == 1 and rep.br1 == 0


def test_rank_one_degeneration_matches_hilbert_samuel(two_plane):
    # rank-1 parameter module over the coordinate ring of two planes:
    # br-coefficients reproduce the Hilbert-Samuel pair (e0, e1)
    ring = two_plane.ring
    x, y, z, w = ring.gens()
    polys = [col.coordinates()[0] for col in two_plane.presentation.columns()]
    pm = brim.make_parameter_module(ring, polys, [[x + z], [y + w]])
    rep = brim.br_coefficients(pm)
    hc = hilbert_coefficients(two_plane, [x + z, y + w])
    assert rep.degree == 2
    assert rep.br == hc.e[0] == 2
    assert rep.br1 == hc.e[1] == -1


def test_br1_nonpositive_on_random_samples():
    rng = random.Random(31)
    x, y = RING2.gens()
    for _ in range(5):
        pm = random_parameter_module(RING2, [], 2, rng)
        rep = brim.br_coefficients(pm)
        assert rep.degree == 3 and rep.br >= 1 and rep.br1 <= 0
        assert rep.pointwise_bound_ok


def test_conjecture_probe_no_alert():
    x = RING1.var(0)
    pm = brim.make_parameter_module(RING1, [], [[x, RING1.zero()],
                                                [RING1.zero(), x]])
    probe = brim.probe_conjecture_9_5(pm)
    assert probe.is_cm and probe.unmixed and probe.br1 == 0
    assert not probe.alert


def test_validation_rejects_bad_input():
    x, y = RING2.gens()
    with pytest.raises(brim.BrimError):
        # unit entry: columns not inside m·F
        brim.make_parameter_module(RING2, [], [[RING2.one()], [x]])
    with pytest.raises(brim.BrimError):
        # inhomogeneous column
        brim.make_parameter_module(RING2, [], [[x + x * y], [y]])


def test_infinite_colength_raises_before_rank_counts(monkeypatch):
    # E = (x) in k[x, y]: F/E = k[y] has infinite length
    x, _ = RING2.gens()
    pm = brim.make_parameter_module(RING2, [], [[x]])

    def no_rank_counts(fld):
        raise AssertionError("rank loop entered")
    monkeypatch.setattr(brim, "_RankTracker", no_rank_counts)
    with pytest.raises(brim.BrimError):
        brim.br_value(pm, 1)
