import random
from fractions import Fraction
from math import comb

import pytest

from gradedca import brim, hilbert
from gradedca.gb import SubmoduleGB
from gradedca.hilbert import hilbert_coefficients
from gradedca.modules import FreeModule, GradedModule
from gradedca.poly import CoeffField, Poly, PolyRing, monomials_of_degree
from gradedca.sampler import random_parameter_module

from reference import _RankTracker, reduce_vector

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


def test_powers_and_probe_share_one_base_ring(monkeypatch, two_plane):
    """R = S/(ring_rels) is pm.base, one module: the filtration's spaces,
    base_dim and the probe's Ext profile all read it, so R's basis is
    built once."""
    x, y, z, w = two_plane.ring.gens()
    pm = brim.make_parameter_module(
        two_plane.ring, [x * z, x * w, y * z, y * w], [[x + z], [y + w]])
    read = []

    def recorded(f):
        def g(module):
            read.append(module)
            return f(module)
        return g
    for name in ("local_cohomology_lengths", "is_unmixed"):
        monkeypatch.setattr(brim, name, recorded(getattr(brim, name)))
    probe = brim.probe_conjecture_9_5(pm)
    assert probe.br1 == -1 and probe.unmixed and not probe.is_cm
    assert pm.powers.top.base is pm.base
    assert read == [pm.base, pm.base]
    assert ("module_gb",) in pm.base._cache


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

    def no_rank_counts(fld, rows, w, cap):
        raise AssertionError("rank count started")
    monkeypatch.setattr(hilbert, "_echelon", no_rank_counts)
    with pytest.raises(brim.BrimError):
        brim.br_value(pm, 1)


def test_br_coefficients_builds_each_product_level_once(monkeypatch):
    # each level Eⁿ is stepped once, from the one below, with no product of
    # polynomials; a second fit, as check_brim's conjecture probe makes,
    # steps none
    ring = PolyRing(CoeffField(32003), ["x", "y", "z"])
    pm = random_parameter_module(ring, [ring.poly("x*y - z^2")], 2,
                                 random.Random(4))
    assert pm.colength is not None and pm.base_dim == 2
    products, steps = [], []
    original_mul, original_step = Poly.__mul__, hilbert.Powers._step

    def counted_mul(self, other):
        products.append(self)
        return original_mul(self, other)

    def counted_step(self):
        steps.append(len(self.values))
        return original_step(self)
    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    monkeypatch.setattr(hilbert.Powers, "_step", counted_step)
    first = brim.br_coefficients(pm)
    top = len(first.table) - 1
    assert steps == list(range(1, top + 1)) and products == []
    del steps[:]
    assert brim.br_coefficients(pm).table == first.table
    assert steps == []


# ---------------------------------------------------------------------------
# reference: λ(Fⁿ/Eⁿ) from products of the g_j reduced modulo the ring
# relations at every step, with one rank count per ring degree in the
# coordinates (T-exponent, standard monomial of R)


def _reference_nf(p, gb, amb):
    return reduce_vector(amb.element([p]), gb.basis, gb.lts,
                         gb.forms).coordinates()[0]


def _reference_products(pm, n, gb, amb):
    base = []
    for col in pm.columns:
        g = {}
        for i, e in enumerate(col):
            if not e.is_zero():
                g[tuple(int(k == i) for k in range(pm.rank))] = e
        base.append(g)
    degs = [next(e.total_degree() for e in col if not e.is_zero())
            for col in pm.columns]
    out = {(): ({(0,) * pm.rank: pm.ring.one()}, 0)}
    for _ in range(n):
        nxt = {}
        for key, (p, dp) in out.items():
            for j in range(key[-1] if key else 0, pm.gens_count):
                if key + (j,) in nxt:
                    continue
                q = {}
                for alpha, c in p.items():
                    for beta, e in base[j].items():
                        gamma = tuple(a + b for a, b in zip(alpha, beta))
                        q[gamma] = q[gamma] + c * e if gamma in q else c * e
                q = {a: _reference_nf(c, gb, amb) for a, c in q.items()}
                nxt[key + (j,)] = ({a: c for a, c in q.items()
                                    if not c.is_zero()}, dp + degs[j])
        out = nxt
    return [(p, dp) for p, dp in out.values() if p]


def _reference_br_value(pm, n):
    if n == 0:
        return 0
    ring = pm.ring
    fld = ring.field
    amb = FreeModule(ring, [0])
    gb = SubmoduleGB([amb.element([p]) for p in pm.ring_rels])
    base = hilbert.monomial_numerator([mon for _, mon in gb.leading_terms()])
    prods = _reference_products(pm, n, gb, amb)
    n_tmons = comb(n + pm.rank - 1, pm.rank - 1)

    def terms(p, mon):
        out = {}
        for alpha, c in p.items():
            red = _reference_nf(c * ring.monomial(mon), gb, amb)
            for m2, cc in red.terms.items():
                out[(alpha, m2)] = cc
        return out

    total, t = 0, 0
    while True:
        dim_free = n_tmons * hilbert.series_coefficient(base, ring.num_vars, t)
        rows = (terms(p, mon) for p, dp in prods
                for mon in monomials_of_degree(ring.num_vars, t - dp))
        left = dim_free - _RankTracker(fld).rank(rows, dim_free)
        total += left
        if left == 0:
            return total
        t += 1


BASES = {
    "line": (["x"], []),
    "plane": (["x", "y"], []),
    "hypersurface": (["x", "y", "z"], ["x*y - z^2"]),
    "two-plane": (["x", "y", "z", "w"], ["x*z", "x*w", "y*z", "y*w"]),
}


@pytest.mark.parametrize("char", [3, 32003, None])
@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_br_value_matches_reference_path(char, base, rank):
    names, rels = BASES[base]
    ring = PolyRing(CoeffField(char), names)
    rng = random.Random("%s-%d" % (base, rank))
    pm = random_parameter_module(ring, [ring.poly(p) for p in rels], rank, rng)
    assert [brim.br_value(pm, n) for n in range(4)] == \
        [_reference_br_value(pm, n) for n in range(4)]


def test_parts_with_different_denominators_share_one_scale():
    # over Q the column (x/2, y/3) has parts of scales 2 and 3, and a row
    # of its table is brought to their lcm, 6: it is (3x, 2y), so E = m·F
    # and λ(F/E) = 2.  With a scale per part the row would be (x, y), a
    # copy of the next column, and λ(F/E) = 3
    ring = PolyRing(CoeffField(None), ["x", "y"])
    x, y = ring.gens()
    zero = ring.zero()
    pm = brim.make_parameter_module(
        ring, [], [[x.scale(Fraction(1, 2)), y.scale(Fraction(1, 3))],
                   [x, y], [y, zero], [zero, x]])
    values = [brim.br_value(pm, n) for n in range(4)]
    assert values == [_reference_br_value(pm, n) for n in range(4)]
    assert values == [0, 2, 9, 24]


def test_t_named_ring_variables_do_not_collide():
    # the same matrix over k[x, y] and over k[T1, T2]: S[T] must not reuse
    # a name of S, and the tables must agree
    named = PolyRing(CoeffField(32003), ["T1", "T2"])
    pm = random_parameter_module(RING2, [], 2, random.Random(5))
    moved = brim.make_parameter_module(
        named, [], [[Poly(named, dict(e.terms)) for e in col]
                    for col in pm.columns])
    assert brim.br_coefficients(moved).table == brim.br_coefficients(pm).table


def test_binom_poly_is_the_integer_binomial_polynomial():
    for s in range(7):
        for n in range(-8, 12):
            expected = Fraction(1)
            for k in range(1, s + 1):
                expected *= Fraction(n + k, k)
            got = brim.binom_poly(n, s)
            assert type(got) is int and got == expected
