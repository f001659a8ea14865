import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedca.modules import FreeModule, term_key
from gradedca.poly import (CoeffField, PolyError, PolyParseError, PolyRing,
                           grevlex_key, mon_div, mon_divides, mon_lcm, mon_mul,
                           monomials_of_degree)

from reference import random_nonzero

FIELD = CoeffField(32003)
RING = PolyRing(FIELD, ["x", "y", "z"])


def rand_poly(rng, ring=RING, max_deg=3, terms=4):
    p = ring.zero()
    for _ in range(terms):
        mon = tuple(rng.randrange(max_deg + 1) for _ in range(3))
        p = p + ring.monomial(mon, ring.field.random(rng))
    return p


def _canonical(p):
    """Every coefficient in its field's canonical form: an int in [1, p)
    over F_p and a Fraction over Q, which reports print as a string."""
    fld = p.ring.field
    if fld.p is None:
        return all(type(c) is Fraction for c in p.terms.values())
    return all(type(c) is int and 0 < c < fld.p for c in p.terms.values())


@given(st.integers(min_value=0, max_value=2 ** 40))
def test_field_inverse(seed):
    rng = random.Random(seed)
    a = random_nonzero(FIELD, rng)
    assert FIELD.reduce(a * FIELD.inv(a)) == FIELD.one()


@pytest.mark.parametrize("p", [3, 32003, None])
@given(st.integers(min_value=0, max_value=2 ** 40))
@settings(max_examples=40)
def test_ring_axioms(p, seed):
    ring = PolyRing(CoeffField(p), ["x", "y", "z"])
    rng = random.Random(seed)
    a, b, c = (rand_poly(rng, ring) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + ring.zero() == a
    assert a * ring.one() == a
    assert a - a == ring.zero()
    assert a - b == a + (-b)
    mon = (1, 0, 2)
    assert a.mul_term(mon, 5) == a * ring.monomial(mon, 5)
    assert all(map(_canonical, [a, b, c, a + b, a - b, -a, a * b, (a + b) * c,
                                a.scale(-2), a.mul_term(mon, -1), a.poly_mul(b)]))


def test_field_validation():
    with pytest.raises(PolyError):
        CoeffField(4)
    with pytest.raises(PolyError):
        CoeffField(2)


def test_monomial_helpers():
    a, b = (2, 1, 0), (1, 3, 0)
    assert mon_lcm(a, b) == (2, 3, 0)
    assert mon_div((2, 3, 0), a) == (0, 2, 0)
    assert mon_div(a, b) is None
    assert mon_divides((1, 1, 0), (2, 1, 0))
    assert len(list(monomials_of_degree(3, 2))) == 6


@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.tuples(*[st.tuples(*[st.integers(min_value=0, max_value=3)] * n)] * 2)))
def test_mon_div_is_exact_division(pair):
    # with 0 variables too: () divides (), with quotient ()
    a, b = pair
    q = mon_div(a, b)
    assert (q is None) == (not mon_divides(b, a))
    if q is not None:
        assert mon_mul(q, b) == a


def test_grevlex_order():
    # graded first; among degree-2 monomials in x,y: x^2 > xy > y^2, and
    # the smaller key is the larger monomial
    x2 = grevlex_key((2, 0, 0))
    xy = grevlex_key((1, 1, 0))
    y2 = grevlex_key((0, 2, 0))
    assert x2 < xy < y2
    assert grevlex_key((0, 0, 1)) > grevlex_key((2, 0, 0))


def _old_grevlex_key(mon):
    """The descending key the order was first stated with: larger key =
    larger monomial."""
    return (sum(mon), tuple(-e for e in reversed(mon)))


def _old_term_key(term):
    pos, mon = term
    return (-pos, _old_grevlex_key(mon))


_MONOMIALS = st.lists(st.integers(min_value=0, max_value=4), min_size=3,
                      max_size=3).map(tuple)


@given(st.lists(_MONOMIALS, min_size=1, max_size=12, unique=True))
def test_ascending_grevlex_key_matches_the_descending_one(mons):
    assert sorted(mons, key=grevlex_key) == \
        sorted(mons, key=_old_grevlex_key, reverse=True)
    assert min(mons, key=grevlex_key) == max(mons, key=_old_grevlex_key)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3), _MONOMIALS),
                min_size=1, max_size=12, unique=True))
def test_ascending_term_key_matches_the_descending_one(terms):
    assert sorted(terms, key=term_key) == \
        sorted(terms, key=_old_term_key, reverse=True)
    assert min(terms, key=term_key) == max(terms, key=_old_term_key)


def test_integer_times_element_is_scale():
    x, y, z = RING.gens()
    p = 2 * x ** 2 - y * z
    amb = FreeModule(RING, [0, 1])
    v = amb.element([p, x])
    assert 3 * p == p.scale(3) == RING.const(3) * p
    assert 3 * v == v.scale(3)
    assert 0 * v == amb.zero()


def test_parser_roundtrip():
    x, y, z = RING.gens()
    assert RING.poly("3*x^2*y - y^3 + 1") == \
        RING.const(3) * x ** 2 * y - y ** 3 + RING.one()
    assert RING.poly("0").is_zero()
    assert RING.poly("-x") == -x
    assert RING.poly("x^0") == RING.one()
    assert RING.poly("x^1") == x
    assert RING.poly("y^3*z") == y * y * y * z


@pytest.mark.parametrize("p", [3, 32003, None])
@given(st.integers(min_value=0, max_value=2 ** 40))
@settings(max_examples=40)
def test_repr_reads_back(p, seed):
    # rational coefficients over Q, residues over F_p, constants included
    ring = PolyRing(CoeffField(p), ["x", "y", "z"])
    rng = random.Random(seed)
    if p is None:
        poly = ring.zero()
        for _ in range(4):
            mon = tuple(rng.randrange(4) for _ in range(3))
            c = Fraction(rng.randrange(-20, 21), rng.randint(1, 12))
            poly = poly + ring.monomial(mon, c)
    else:
        poly = rand_poly(rng, ring)
    assert ring.poly(repr(poly)) == poly


def test_coerce_maps_a_fraction_to_a_residue():
    ring = PolyRing(CoeffField(7), ["x"])
    assert ring.monomial((1,), Fraction(1, 2)) == ring.monomial((1,), 4)
    assert ring.const(Fraction(-3, 5)) == ring.const(5)
    assert CoeffField(7).coerce(Fraction(14, 3)) == 0
    with pytest.raises(PolyError):
        ring.monomial((1,), Fraction(1, 7))
    with pytest.raises(PolyError):
        ring.const(Fraction(3, 14))


@pytest.mark.parametrize("p", [7, None])
def test_parser_reads_rational_coefficients(p):
    ring = PolyRing(CoeffField(p), ["x", "y"])
    x, y = ring.gens()
    half = ring.field.coerce(Fraction(1, 2))
    assert ring.poly("1/2*x - 3 / 4*y^2") == \
        x.scale(half) - (y * y).scale(ring.field.coerce(Fraction(3, 4)))
    assert ring.poly("-2/4") == ring.const(Fraction(-1, 2))
    for text, at in (("1/0*x", 2), ("x + y/2", 5), ("1/*x", 2)):
        with pytest.raises(PolyParseError) as err:
            ring.poly(text)
        assert err.value.position == at
    if p is not None:
        with pytest.raises(PolyParseError) as err:
            ring.poly("x + 1/14*y")
        assert err.value.position == 6


def test_repr_writes_a_negative_coefficient_after_a_minus_sign():
    ring = PolyRing(CoeffField(None), ["x", "y"])
    assert repr(ring.poly("x - y")) == "x - y"
    assert repr(ring.poly("-3*x^2 - 2*y^2 + x*y")) == "-3*x^2 + x*y - 2*y^2"
    assert repr(ring.poly("-x + 1")) == "-x + 1"
    assert repr(ring.poly("y - 4")) == "y - 4"
    assert repr(PolyRing(CoeffField(7), ["x", "y"]).poly("x - y")) == "x + 6*y"


def test_parser_position_diagnostics():
    with pytest.raises(PolyParseError) as err:
        RING.poly("x + @y")
    assert err.value.position is not None


def test_homogeneity_and_leading():
    x, y, z = RING.gens()
    p = x * y + z ** 2
    assert p.is_homogeneous() and p.total_degree() == 2
    assert not (x + y ** 2).is_homogeneous()
    mon, _ = p.leading_term()
    assert mon == (1, 1, 0)
