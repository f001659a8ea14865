import itertools
import json
import os
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedca import gb as gbmod
from gradedca import hilbert as hb
from gradedca import homology, invariants, koszul
from gradedca.checks import check_instance
from gradedca.gb import module_gb, quotient_by_ideal
from gradedca.jobio import build_job
from gradedca.modules import FreeModule, GradedModule
from gradedca.poly import (CoeffField, Poly, PolyRing, monomials_of_degree,
                           parse_poly)
from gradedca.sampler import random_parameter_ideal

from reference import (_RankTracker, quotient_length, random_integer_forms,
                       reduce_vector, reference_buchberger,
                       reference_module_powers)

RING = PolyRing(CoeffField(32003), ["x", "y"])
X, Y = RING.gens()


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=40, deadline=None)
def test_hilbert_function_mod_p_bounds_the_one_over_q(seed):
    """For integer generators, H(S/I_p, t) ≥ H(S/I_Q, t) in every degree,
    p = 3 and 32003: dim (I_p)_t is the rank mod p of the integer matrix
    whose rank over Q is dim (I_Q)_t, and a rank can only drop mod p.
    Equality holds only for generic p, so it is not asserted."""
    rng = random.Random(seed)
    names = ["x", "y", "z"][:rng.randint(2, 3)]
    texts = random_integer_forms(rng, names, rng.randint(2, 4), 3)

    def values(p):
        ring = PolyRing(CoeffField(p), names)
        quo = GradedModule.quotient_ring(ring, [ring.poly(t) for t in texts])
        return [hb.hilbert_function(quo, t) for t in range(8)]

    over_q = values(None)
    for p in (3, 32003):
        assert all(a >= b for a, b in zip(values(p), over_q))


def test_dim_oracles(free_plane, mixed_line, two_plane):
    assert hb.dim_module(free_plane) == 2
    assert hb.dim_module(mixed_line) == 1
    assert hb.dim_module(two_plane) == 2
    zero = GradedModule.quotient_ring(RING, [RING.one()])
    assert hb.dim_module(zero) == hb.NEG_INF


def test_length_oracles(free_plane):
    assert hb.module_length(
        GradedModule.quotient_ring(RING, [X ** 2, X * Y, Y ** 2])) == 3
    assert hb.module_length(
        GradedModule.quotient_ring(RING, [X ** 2, Y ** 3])) == 6
    assert hb.module_length(free_plane) is None


def test_hilbert_samuel_tables(free_plane, mixed_line):
    t = hb.hilbert_samuel(free_plane, [X, Y], 4)
    assert t.values == [1, 3, 6, 10, 15]
    t = hb.hilbert_samuel(mixed_line, [Y], 4)
    assert t.values == [2, 3, 4, 5, 6]
    assert all(a <= b for a, b in zip(t.values, t.values[1:]))


def test_coefficient_oracles(free_plane, mixed_line, two_plane, ring4):
    assert hb.hilbert_coefficients(free_plane, [X, Y]).e == [1, 0, 0]
    assert hb.hilbert_coefficients(mixed_line, [Y]).e == [1, -1]
    assert hb.hilbert_coefficients(free_plane, [X ** 2, Y ** 3]).e == [6, 0, 0]
    x, y, z, w = ring4.gens()
    assert hb.hilbert_coefficients(two_plane, [x + z, y + w]).e == [2, -1, 0]


@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=8, deadline=None)
def test_monomial_regular_sequences(a, b):
    # e0 = product of exponents, higher e_i vanish
    free = GradedModule.free(RING)
    e = hb.hilbert_coefficients(free, [X ** a, Y ** b]).e
    assert e == [a * b, 0, 0]


def test_presentation_invariance(mixed_line):
    # same module, redundant presentation
    amb = FreeModule(RING, [0])
    rels = [amb.element([X ** 2]), amb.element([X * Y]),
            amb.element([X ** 2 + X * Y]), amb.element([X ** 3])]
    other = GradedModule.from_relations(amb, rels)
    for gens in ([Y], [Y ** 2]):
        a = hb.hilbert_samuel(mixed_line, gens, 3).values
        b = hb.hilbert_samuel(other, gens, 3).values
        assert a == b


def test_parameter_ideal_validation(free_plane, mixed_line):
    q = hb.make_parameter_ideal(free_plane, [X, Y])
    assert q.colength_certificate == 1 and q.degrees == (1, 1)
    with pytest.raises(hb.HilbertError):
        hb.make_parameter_ideal(free_plane, [X])
    with pytest.raises(hb.HilbertError):
        hb.make_parameter_ideal(free_plane, [X, X])
    with pytest.raises(hb.HilbertError):
        hb.make_parameter_ideal(mixed_line, [X])  # x kills the line direction


def test_non_artinian_error_names_direction(free_plane):
    with pytest.raises(hb.HilbertError) as err:
        hb.colength(free_plane, [X])
    assert "y" in str(err.value)


def test_growth_witness_names_a_variable_without_pure_power(ring3):
    # M = S/(x², y³, yz) ⊕ S/(x, y, z): the first position has pure powers
    # of x and y only, so the witness is (0, z); the Artinian second
    # position is never named
    x, y, z = ring3.gens()
    amb = FreeModule(ring3, [0, 1])
    e0, e1 = amb.basis(0), amb.basis(1)
    rels = [e0.poly_mul(x ** 2), e0.poly_mul(y ** 3), e0.poly_mul(y * z),
            e1.poly_mul(x), e1.poly_mul(y), e1.poly_mul(z)]
    module = GradedModule.from_relations(amb, rels)
    assert hb._position_growth_witness(module) == (0, "z")
    # S/(x, y, z) ⊕ S/(x², xz): position 0 is Artinian, and at position 1
    # only x has a pure power, so y comes first
    rels = [e0.poly_mul(x), e0.poly_mul(y), e0.poly_mul(z),
            e1.poly_mul(x ** 2), e1.poly_mul(x * z)]
    module = GradedModule.from_relations(amb, rels)
    assert hb._position_growth_witness(module) == (1, "y")
    with pytest.raises(hb.HilbertError, match=r"position 1 along \(y\)"):
        hb.colength(module, [])


def test_superficial_oracles(free_plane, mixed_line, two_plane, ring4):
    q = hb.make_parameter_ideal(free_plane, [X, Y])
    rep = hb.superficial_check(free_plane, q, X)
    assert rep.passed and rep.e_module[0] == 1

    qm = hb.make_parameter_ideal(mixed_line, [Y])
    rep = hb.superficial_check(mixed_line, qm, Y)
    assert rep.passed and rep.colon_length == 1
    assert rep.e_module == [1, -1] and rep.e_quotient == [2]

    x, y, z, w = ring4.gens()
    qt = hb.make_parameter_ideal(two_plane, [x + z, y + w])
    rep = hb.superficial_check(two_plane, qt, x + z)
    assert rep.passed
    # dim 2: e1(M) = e1(M/hM) + colon length
    assert rep.e_module[1] == rep.e_quotient[1] + rep.colon_length


def test_coefficients_of_dim_zero_module():
    pts = GradedModule.quotient_ring(RING, [X ** 2, Y ** 3])
    hc = hb.hilbert_coefficients(pts, [])
    assert hc.e == [6]


def test_hilbert_function_values(two_plane):
    assert [hb.hilbert_function(two_plane, n) for n in range(4)] == [1, 4, 6, 8]


@pytest.mark.parametrize("name", ["brim-line", "dim3-buchsbaum", "free-plane",
                                  "hypersurface", "mixed-line", "mixed-sum",
                                  "plane-plus-line", "two-plane"])
def test_hs_value_is_the_length_of_the_quotient(name):
    # the rank-count kernel against a Groebner basis of M/Q^{n+1}M
    module = _corpus_module(name)
    q = random_parameter_ideal(module, [1] * hb.dim_module(module),
                               random.Random(name)).gens
    powers = hb._module_powers(module, q)
    for n in range(3):
        assert hb._hs_value(module, powers, n) == hb.module_length(
            quotient_by_ideal(module, _reference_power_products(q, n + 1)))


def _standard_count(gens, n, d):
    """Monomials of degree d in n variables outside the ideal (gens)."""
    if d < 0:
        return 0
    return sum(1 for m in itertools.product(range(d + 1), repeat=n)
               if sum(m) == d
               and not any(all(a >= b for a, b in zip(m, g)) for g in gens))


def _monomial_dim(gens, n):
    """Largest set of variables containing the support of no generator."""
    if any(not any(g) for g in gens):
        return hb.NEG_INF
    for size in range(n, 0, -1):
        for vs in itertools.combinations(range(n), size):
            if all(any(g[k] for k in range(n) if k not in vs) for g in gens):
                return size
    return 0


_MONOMIAL_MODULES = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(
            st.integers(min_value=-2, max_value=2),
            st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)] * n),
                     max_size=5),
            st.booleans()),
            min_size=1, max_size=3)))


@given(_MONOMIAL_MODULES)
@settings(max_examples=60, deadline=None)
def test_series_matches_standard_monomials(spec):
    # ⊕ (S/I_i)(−twist_i) for monomial ideals I_i, some made Artinian
    n, blocks = spec
    ring = PolyRing(CoeffField(32003), ["x%d" % k for k in range(n)])
    blocks = [(twist, gens + ([tuple(3 if k == j else 0 for k in range(n))
                               for j in range(n)] if artinian else []))
              for twist, gens, artinian in blocks]
    amb = FreeModule(ring, [twist for twist, _ in blocks])
    rels = [amb.basis(i).mul_term(g, 1)
            for i, (_, gens) in enumerate(blocks) for g in gens]
    module = GradedModule.from_relations(amb, rels)

    dims = [_monomial_dim(gens, n) for _, gens in blocks]
    assert hb.dim_module(module) == max(dims)
    for d in range(-3, 12):
        assert hb.hilbert_function(module, d) == sum(
            _standard_count(gens, n, d - twist) for twist, gens in blocks)
    if max(dims) > 0:
        assert hb.module_length(module) is None
    else:
        # standard monomials of an Artinian block have exponents <= 2
        assert hb.module_length(module) == sum(
            _standard_count(gens, n, d) for _, gens in blocks
            for d in range(2 * n + 1))


# ---------------------------------------------------------------------------
# the levels of _Powers against the per-row reduction of products built
# afresh


def _reference_quotient_length(module, vectors):
    """λ(M/⟨vectors⟩) with one reduce_vector call per vector and per
    monomial multiple of one."""
    ring = module.ring
    one = ring.field.one()
    gb = module_gb(module)
    lts = gb.leading_terms()
    amb = module.ambient
    bases = []
    for v in vectors:
        v = reduce_vector(v, gb.basis, lts, gb.forms)
        if not v.is_zero():
            bases.append((v, v.degree()))
    total = 0
    t = min(amb.twists)
    while True:
        std = hb.hilbert_function(module, t)
        rows = (reduce_vector(v.mul_term(m, one), gb.basis, lts, gb.forms).terms
                for v, dv in bases
                for m in monomials_of_degree(ring.num_vars, t - dv))
        left = std - _RankTracker(ring.field).rank(rows, std)
        total += left
        if left == 0 and t >= max(amb.twists):
            return total
        t += 1


def _random_vector(amb, degree, rng):
    """A random homogeneous vector of the given degree in amb."""
    ring = amb.ring
    return amb.element([ring.random_form(degree - tw, rng) if degree >= tw
                        else ring.zero() for tw in amb.twists])


def _reference_power_products(gens, n):
    """All products of n generators (with repetition), each level rebuilt
    from scratch."""
    out = {(): gens[0].ring.one()} if gens else {}
    for _ in range(n):
        nxt = {}
        for key, p in out.items():
            for j in range(key[-1] if key else 0, len(gens)):
                nxt[key + (j,)] = p * gens[j]
        out = nxt
    return list(out.values())


PRIMES = [3, 5, 32003, 2 ** 31 - 1, 2 ** 61 - 1]  # the last two need slots
                                                   # wider than 64 bits


def _triangular_ideal(ring, rng):
    """Forms x_k^d + f_k of degree d in 1..2, f_k in the variables after
    x_k, shuffled: every x_k is nilpotent modulo them, so M/QM has finite
    length for every M."""
    q = []
    for k, x in enumerate(ring.gens()):
        d = rng.randint(1, 2)
        f = ring.random_form(d, rng)
        q.append(x ** d + Poly(ring, {m: c for m, c in f.terms.items()
                                      if not any(m[:k + 1])}))
    rng.shuffle(q)
    return q


def _random_module(char, rng):
    """A random graded module in 2 or 3 variables with unequal twists."""
    ring = PolyRing(CoeffField(char), ["x", "y", "z"][:rng.randint(2, 3)])
    twists = [rng.randint(-1, 1) for _ in range(rng.randint(1, 3))]
    if len(twists) > 1 and len(set(twists)) == 1:
        twists[0] += 1
    amb = FreeModule(ring, twists)
    rels = [_random_vector(amb, max(twists) + rng.randint(1, 2), rng)
            for _ in range(rng.randint(0, 3))]
    return GradedModule.from_relations(amb, rels)


@given(st.sampled_from(PRIMES + [None]),
       st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=40, deadline=None)
def test_hs_value_matches_reference_quotient_length(char, seed):
    # a random graded module with unequal twists, and the quotient by
    # Q^{n+1}·e_i for the products of n + 1 generators of Q, n ≤ 3
    rng = random.Random(seed)
    module = _random_module(char, rng)
    ring, amb = module.ring, module.ambient
    q = _triangular_ideal(ring, rng)
    powers = hb._module_powers(module, q)
    for n in range(4):
        vectors = amb.ideal_multiples(_reference_power_products(q, n + 1))
        assert hb._hs_value(module, powers, n) == \
            _reference_quotient_length(module, vectors)


@given(st.sampled_from([3, 32003, None]),
       st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=40, deadline=None)
def test_module_powers_match_the_tables_of_products(char, seed):
    # the tables summed from the packed multiplication tables against the
    # tables of NF(g_j·u) reduced product by product, level by level: random
    # modules with unequal twists, and ideals with forms of degree 1 and 2
    # of up to six terms, over Q some with rational coefficients
    rng = random.Random(seed)
    module = _random_module(char, rng)
    ring = module.ring
    q = _triangular_ideal(ring, rng) + [
        ring.random_form(rng.randint(1, 2), rng) for _ in range(rng.randint(0, 2))]
    if char is None:
        q = [g.scale(Fraction(1, rng.randint(1, 4))) for g in q]
    rng.shuffle(q)
    powers = hb._module_powers(module, q)
    ref = reference_module_powers(module, q)
    assert [powers.value(n) for n in range(1, 5)] == \
        [ref.value(n) for n in range(1, 5)]
    assert powers.top.tables.keys() == ref.top.tables.keys()
    for j, s in powers.top.tables:
        assert _table_rows(powers, j, s) == _table_rows(ref, j, s)


def _table_rows(powers, j, s):
    """The table of g_j on degree s as rows {slot: c} over the field: over
    F_p unpacked at the width _Powers gave it and reduced mod p, over Q
    divided by the entry at the least slot of its first nonzero row."""
    space, fld = powers.top, powers.fld
    table = space.tables[(j, s)]
    if fld.p is None:
        lead = next((Fraction(r[min(r)]) for r in table if r), 1)
        return [{k: c / lead for k, c in r.items()} for r in table]
    t = s + powers.degrees[j]
    cols = space.cols(t)
    below = max(space.cols(t - d) for d in powers.degrees)
    w = hb._slot_width(fld.p, below, powers.terms, cols)
    return [{k: c for k in range(cols) if (c := (r >> w * k & (1 << w) - 1) % fld.p)}
            for r in table]


def _corpus_module(name):
    path = os.path.join(os.path.dirname(__file__), "..", "corpus", name + ".json")
    with open(path) as fh:
        return build_job(json.load(fh)).module


@pytest.mark.parametrize("name", ["ci-points", "free-plane", "hypersurface",
                                  "mixed-line", "mixed-sum", "plane-plus-line"])
def test_lengths_match_macaulay_matrix_counts(name):
    # module_length and _hs_value over F_32003 against ranks of Macaulay
    # matrices, which need no Groebner basis: M/QM and M/Q^{n+1}M as
    # F/(relations + Q^{n+1}F), n ≤ 2
    module = _corpus_module(name)
    p, amb = module.ring.field.p, module.ambient
    rels = [r.terms for r in module.relations()]

    def oracle(gens):
        vectors = rels + [v.terms for v in amb.ideal_multiples(gens)]
        return quotient_length(p, module.ring.num_vars, amb.twists, vectors)
    q = random_parameter_ideal(module, [1] * hb.dim_module(module),
                               random.Random(name)).gens
    if not q:
        assert hb.module_length(module) == oracle([])
    assert hb.module_length(quotient_by_ideal(module, q)) == oracle(q)
    powers = hb._module_powers(module, q)
    for n in range(3):
        assert hb._hs_value(module, powers, n) == \
            oracle(_reference_power_products(q, n + 1))


@pytest.mark.parametrize("gens", ["", "x", "x+y,z", "x,y,z", "x^2,y+z,x", "x*z,y^2"])
def test_power_levels_match_products_built_afresh(ring3, gens):
    # level n of _Powers against M/(products of n generators)M on an
    # Artinian M with unequal twists, so that every ideal has finite
    # colength: the zero ideal, repeated generators and non-parameters too
    x, y, z = ring3.gens()
    gens = [parse_poly(ring3, g) for g in gens.split(",") if g]
    amb = FreeModule(ring3, [0, 1])
    rels = amb.ideal_multiples([x ** 3, y ** 3, z ** 3])
    rels.append(amb.element([x ** 2, -y]))
    module = GradedModule.from_relations(amb, rels)
    powers = hb._module_powers(module, gens)
    for n in range(1, 5):
        assert powers.value(n) == hb.module_length(
            quotient_by_ideal(module, _reference_power_products(gens, n)))


def _count_reductions(monkeypatch):
    calls = []
    original = hb._reduce

    def counted(work, *args):
        calls.append(dict(work))  # _reduce uses its work dict up
        return original(work, *args)
    monkeypatch.setattr(hb, "_reduce", counted)
    return calls


def _count_packings(monkeypatch):
    packed = []
    original = hb._pack_normal_form

    def counted(fld, nf, term, slots, w):
        packed.append((term, w))
        return original(fld, nf, term, slots, w)
    monkeypatch.setattr(hb, "_pack_normal_form", counted)
    return packed


def test_normal_form_table_is_reused_across_parameter_ideals(monkeypatch, ring3):
    # each NF(term) is reduced once per module and packed once per module
    # and width: a second Q packs no row an earlier Q packed, and a Q in
    # the same variables, with as many terms and the same degrees as an
    # earlier one, packs and reduces nothing
    x, y, z = ring3.gens()
    module = GradedModule.quotient_ring(ring3, [x * y - z ** 2])
    packed = _count_packings(monkeypatch)
    first = hb.hilbert_coefficients(module, [x + y, z])
    first_packed = list(packed)
    calls = _count_reductions(monkeypatch)
    del packed[:]
    again = hb.hilbert_coefficients(module, [x ** 2, y - z])
    second_packed, reused = list(packed), len(calls)
    del packed[:], calls[:]
    same = hb.hilbert_coefficients(module, [y + z, x])
    assert packed == [] and calls == []
    fresh = hb.hilbert_coefficients(GradedModule(module.presentation),
                                     [x ** 2, y - z])
    assert 0 < reused < len(calls)
    # every call reduces one monomial
    assert all(len(work) == 1 for work in calls)
    assert first_packed and second_packed
    assert len(set(first_packed + second_packed)) == \
        len(first_packed) + len(second_packed)
    assert len(second_packed) < len(packed)
    assert again.e == fresh.e == [4, 0, 0]
    assert again.stabilized_at == fresh.stabilized_at
    assert again.table.values == fresh.table.values
    assert same.e == first.e == [2, 0, 0]
    assert same.table.values == first.table.values


@pytest.mark.parametrize("name", ["dim3-buchsbaum", "hypersurface", "mixed-sum",
                                  "two-plane"])
def test_tables_over_q_build_no_monic_vector(name, monkeypatch):
    # the series, the tables and the fit read the Buchberger run's lead
    # terms and integer forms alone; the monic basis, read afterwards, is
    # still the reduced basis, coefficient for coefficient
    path = os.path.join(os.path.dirname(__file__), "..", "corpus", name + ".json")
    with open(path) as fh:
        raw = json.load(fh)
    raw["ring"]["characteristic"] = None
    job = build_job(raw)
    module, q = job.module, job.ideals["Q"]
    built = []
    original = gbmod._monic

    def counted(*args):
        built.append(args)
        return original(*args)
    monkeypatch.setattr(gbmod, "_monic", counted)
    hb.hilbert_series(module)
    values = hb.hilbert_samuel(module, q, 3).values
    fit = hb.hilbert_coefficients(module, q)
    assert built == []
    assert fit.table.values[:4] == values
    monkeypatch.undo()
    basis = module_gb(module).basis
    want = reference_buchberger(module.relations())
    assert [list(b.terms.items()) for b in basis] == \
        [list(b.terms.items()) for b in want]
    assert all(type(c) is Fraction for b in basis for c in b.terms.values())


# ---------------------------------------------------------------------------
# the echelon against the dict elimination over the field


def _reduce(fld, row, basis):
    """row minus the multiples of the basis rows that clear their pivots,
    highest pivot first; a basis row's pivot is its highest slot."""
    row = dict(row)
    for b in sorted(basis, key=max, reverse=True):
        c = row.get(max(b))
        if c:
            c = fld.reduce(c * fld.inv(b[max(b)]))
            for s, v in b.items():
                row[s] = fld.reduce(row.get(s, 0) - c * v)
    return {s: c for s, c in row.items() if c}


@given(st.sampled_from(PRIMES + [None]),
       st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=200, deadline=None)
def test_rank_count_matches_rank_tracker(p, seed):
    # random sparse rows, some of them combinations of earlier ones, and
    # caps below, at and above their rank: _echelon finds min(cap, rank)
    # rows with distinct pivots, over F_p pivot 1 and tail reduced, over Q
    # primitive integer rows, and at a cap of at least the rank every row
    # reduces to zero against them.  Tagged by its index, a basis row comes
    # back, in join order, with the index of a row outside the span of
    # the rows before it
    rng = random.Random(seed)
    fld = CoeffField(p)
    ncols = rng.randint(1, 10)
    rows = []
    for _ in range(rng.randint(0, 14)):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            k = fld.random(rng)
            row = {s: fld.reduce(a.get(s, 0) + k * b.get(s, 0))
                   for s in a.keys() | b.keys()}
        else:
            row = {s: rng.choice([fld.one(), fld.reduce(-fld.one()), fld.random(rng)])
                   for s in rng.sample(range(ncols), rng.randint(0, ncols))}
        rows.append({s: c for s, c in row.items() if c})
    if p is None:
        # the entries are integral; _echelon reads integer rows over Q
        assert all(c.denominator == 1 for r in rows for c in r.values())
        rows = [{s: int(c) for s, c in r.items()} for r in rows]
    rank = _RankTracker(fld).rank(rows, ncols)
    tracker = _RankTracker(fld)
    joined = [i for i, r in enumerate(rows) if r and tracker.add(r)]
    for cap in {0, max(rank - 1, 0), rank, rng.randint(0, ncols), ncols + 1}:
        if p is None:
            tagged = hb._echelon(fld, enumerate(rows), None, cap)
            basis = [b for _, b in tagged]
            assert all(type(c) is int for b in basis for c in b.values())
            assert all(gcd(*b.values()) == 1 for b in basis)
        else:
            w = ((cap + 1) * p * p).bit_length()
            packed = ((i, sum(c << w * s for s, c in r.items()))
                      for i, r in enumerate(rows))
            tagged = hb._echelon(fld, packed, w, cap)
            basis = [{s: b >> w * s & (1 << w) - 1 for s in range(ncols)}
                     for _, b in tagged]
            basis = [{s: c for s, c in b.items() if c} for b in basis]
            assert all(c < p for b in basis for c in b.values())
            assert all(b[max(b)] == 1 for b in basis)
        assert len({max(b) for b in basis}) == len(basis)
        assert len(basis) == min(cap, rank)
        assert [i for i, _ in tagged] == joined[:cap]
        if cap >= rank:
            assert all(not _reduce(fld, r, basis) for r in rows)


@pytest.mark.parametrize("p", [3, 32003])
@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=40, deadline=None)
def test_echelon_holds_the_widest_table_entries(p, seed):
    # a module's table at its worst case: T·(p−1)² in every entry, less an
    # offset below p in some so that the rank varies, and level-k basis
    # rows with p − 1 in most slots.  At _slot_width's width the table rows
    # and their images echelon as the same rows do over the field
    rng = random.Random(seed)
    fld = CoeffField(p)
    terms, below, cols = rng.randint(1, 4), rng.randint(1, 8), rng.randint(1, 10)
    top = terms * (p - 1) ** 2
    table = [[top - (rng.randrange(p) if rng.random() < 0.3 else 0)
              for _ in range(cols)] for _ in range(below)]
    w = hb._slot_width(p, below, terms, cols)
    packed = [sum(e << w * c for c, e in enumerate(r)) for r in table]
    ws = hb._slot_width(p, rng.randint(1, 8), terms, below)
    held = [[p - 1 if rng.random() < 0.8 else rng.randrange(p)
             for _ in range(below)] for _ in range(rng.randint(1, below + 1))]
    images = [hb._image(fld, sum(c << ws * k for k, c in enumerate(b)), ws, packed)
              for b in held]
    over_field = [[sum(c * r[col] for c, r in zip(b, table)) % p
                   for col in range(cols)] for b in held]
    for rows, expected in ((packed, table), (images, over_field)):
        expected = [{s: c % p for s, c in enumerate(r) if c % p} for r in expected]
        rank = _RankTracker(fld).rank(expected, cols)
        basis = [{s: b >> w * s & (1 << w) - 1 for s in range(cols)}
                 for _, b in hb._echelon(fld, enumerate(rows), w, cols)]
        basis = [{s: c for s, c in b.items() if c} for b in basis]
        assert all(c < p for b in basis for c in b.values())
        assert all(b[max(b)] == 1 for b in basis)
        assert len({max(b) for b in basis}) == len(basis) == rank
        assert all(not _reduce(fld, r, basis) for r in expected)


@pytest.mark.parametrize("char", [32003, None])
def test_hilbert_samuel_value_over_both_fields(char):
    ring = PolyRing(CoeffField(char), ["x", "y"])
    x, y = ring.gens()
    module = GradedModule.quotient_ring(ring, [x * y])
    # k[x,y]/(xy, x², y³) has basis 1, x, y, y²
    assert hb.hilbert_samuel(module, [x ** 2, y ** 3], 0).values == [4]


# ---------------------------------------------------------------------------
# the (module, Q) memo


def _count_hs_values(monkeypatch):
    calls = []
    original = hb._hs_value

    def counted(*args):
        calls.append(args[2])
        return original(*args)
    monkeypatch.setattr(hb, "_hs_value", counted)
    return calls


def test_coefficients_memo_ignores_generator_order(monkeypatch, ring4):
    x, y, z, w = ring4.gens()
    rels = [x * z, x * w, y * z, y * w]
    module = GradedModule.quotient_ring(ring4, rels)
    calls = _count_hs_values(monkeypatch)
    first = hb.hilbert_coefficients(module, [x + z, y + w])
    assert calls
    del calls[:]
    again = hb.hilbert_coefficients(module, [y + w, x + z])
    assert calls == []
    fresh = hb.hilbert_coefficients(
        GradedModule(module.presentation), [y + w, x + z])
    assert calls
    for hc in (again, fresh):
        assert hc.e == first.e == [2, -1, 0]
        assert hc.stabilized_at == first.stabilized_at
        assert hc.table.values == first.table.values


def test_multiplicity_shares_the_coefficients_entry(monkeypatch, ring3):
    from gradedca.invariants import multiplicity
    x, y, z = ring3.gens()
    module = GradedModule.quotient_ring(ring3, [x * y - z ** 2])
    q = [x + y, z]
    calls = _count_hs_values(monkeypatch)
    e = hb.hilbert_coefficients(module, q).e
    del calls[:]
    assert multiplicity(module, [z, x + y]) == e[0] == 2
    assert calls == []


MEMOIZED = [(gbmod.module_gb, ()), (gbmod.annihilator, ()),
            (gbmod.minimal_presentation, ()),
            (gbmod.minimal_free_resolution, ()),
            (gbmod.quotient_by_ideal, ([Y],)), (hb.hilbert_series, ()),
            (hb._normal_forms, ()), (hb.hilbert_coefficients, ([Y],)),
            (homology.ext_module, (1,)),
            (homology.local_cohomology_lengths, ()),
            (homology.unmixed_component, ()), (invariants.hdeg, ([Y],)),
            (koszul.koszul_homology, ([Y],))]


@pytest.mark.parametrize("fn,args", MEMOIZED,
                         ids=[fn.__name__ for fn, _ in MEMOIZED])
def test_memoized_call_returns_the_stored_object(fn, args):
    module = GradedModule.quotient_ring(RING, [X ** 2, X * Y])
    first = fn(module, *args)
    assert fn(module, *args) is first
    assert [k for k in module._cache if k[0] == fn.__name__]


def test_second_colength_runs_no_buchberger(monkeypatch):
    calls = []
    original = gbmod._groebner

    def counted(base, gens, seed=None):
        calls.append(gens)
        return original(base, gens, seed)
    monkeypatch.setattr(gbmod, "_groebner", counted)
    module = GradedModule.quotient_ring(RING, [X ** 2, X * Y])
    assert hb.colength(module, [Y]) == 2
    assert calls
    del calls[:]
    assert hb.colength(module, [Y]) == 2
    assert calls == []


def test_coefficients_memo_ignores_generator_order_and_default_fit(ring3):
    x, y, z = ring3.gens()
    module = GradedModule.quotient_ring(ring3, [x * y - z ** 2])
    first = hb.hilbert_coefficients(module, [x + y, z])
    assert hb.hilbert_coefficients(module, [z, x + y]) is first


def test_quotient_memo_keeps_generator_order(ring3):
    x, y, z = ring3.gens()
    module = GradedModule.quotient_ring(ring3, [x * y - z ** 2])
    ab = quotient_by_ideal(module, [x + y, z])
    ba = quotient_by_ideal(module, [z, x + y])
    assert ab is not ba
    assert quotient_by_ideal(module, [x + y, z]) is ab
    assert quotient_by_ideal(module, [z, x + y]) is ba
    assert hb.module_length(ab) == hb.module_length(ba) == 2


@pytest.mark.parametrize("char", [32003, None])
def test_memo_keys_are_the_forms_themselves(char):
    # a form is keyed by Poly's own hash and equality: an equal Poly parsed
    # again, or the forms in a tuple rather than a list, hit the same entry;
    # the ordered keys miss on another order, and the coefficients, keyed
    # by the set of generators, hit on another order or a repeated one
    ring = PolyRing(CoeffField(char), ["x", "y", "z", "w"])
    x, y, z, w = ring.gens()
    module = GradedModule.quotient_ring(ring, [x * z, x * w, y * z, y * w])
    forms = [x + z, y + w]
    parsed = [ring.poly(repr(f)) for f in forms]
    assert parsed == forms and parsed[0] is not forms[0]
    quo = quotient_by_ideal(module, forms)
    hc = hb.hilbert_coefficients(module, forms)
    kh = koszul.koszul_homology(module, forms)
    for same in (parsed, tuple(forms), tuple(parsed)):
        assert quotient_by_ideal(module, same) is quo
        assert hb.hilbert_coefficients(module, same) is hc
        assert koszul.koszul_homology(module, same) is kh
    assert quotient_by_ideal(module, forms[::-1]) is not quo
    assert hb.hilbert_coefficients(module, forms[::-1]) is hc
    repeated = forms + [parsed[0]]
    assert hb.hilbert_coefficients(module, repeated) is hc
    fresh = hb.hilbert_coefficients(GradedModule(module.presentation), repeated)
    assert fresh is not hc and fresh.e == hc.e == [2, -1, 0]


def _holds_str(key):
    return isinstance(key, str) or (isinstance(key, (tuple, frozenset))
                                    and any(map(_holds_str, key)))


def test_check_battery_keys_hold_no_strings():
    # every memo key is the function's name followed by its arguments, with
    # forms as Polys: no key spells a form out as a string
    path = os.path.join(os.path.dirname(__file__), "..", "corpus",
                        "dim3-buchsbaum.json")
    with open(path) as fh:
        job = build_job(json.load(fh))
    assert all(row.passed for row in check_instance(job))
    modules, seen = [job.module], set()
    while modules:
        module = modules.pop()
        if id(module) in seen:
            continue
        seen.add(id(module))
        for key, value in module._cache.items():
            assert isinstance(key[0], str) and not _holds_str(key[1:]), key
            if isinstance(value, GradedModule):
                modules.append(value)
    assert len(seen) > 1


def test_infinite_colength_raises_on_every_call():
    # the coefficients memo stores only fitted results
    module = GradedModule.free(RING)
    for _ in range(2):
        with pytest.raises(hb.HilbertError, match="not Artinian"):
            hb.hilbert_coefficients(module, [X])


# ---------------------------------------------------------------------------
# the difference fit against the Fraction-window solve it replaced

def _binom_fraction(n, s):
    out = Fraction(1)
    for k in range(1, s + 1):
        out *= Fraction(n + k, k)
    return out


def _solve_fraction(a, b):
    """Gaussian elimination over Fractions; None if singular."""
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    size = len(m)
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(size):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][size] for r in range(size)]


def _reference_fit(value, r, s, n_max):
    """Two consecutive (r+1)-point windows solved exactly must agree on an
    integer vector that also fits one further point."""
    values = []

    def row(n):
        return [(-1) ** i * _binom_fraction(n - s, r - i) for i in range(r + 1)]

    def window(n0):
        points = range(n0, n0 + r + 1)
        return _solve_fraction([row(n) for n in points],
                               [Fraction(values[n]) for n in points])

    for n0 in range(n_max - r - 1):
        while len(values) <= n0 + r + 2:
            values.append(value(len(values)))
        c = window(n0)
        if c is not None and c == window(n0 + 1) \
                and all(v.denominator == 1 for v in c) \
                and sum(a * b for a, b in zip(c, row(n0 + r + 2))) == values[n0 + r + 2]:
            return [int(v) for v in c], values, n0
    return None


@given(st.integers(min_value=0, max_value=5), st.sampled_from([0, 1]),
       st.sampled_from(["polynomial", "noisy", "never", "small"]),
       st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=300, deadline=None)
def test_fit_binomial_matches_fraction_windows(r, s, kind, seed):
    rng = random.Random(seed)
    n_max = rng.randint(0, 24)
    c = [rng.randint(-30, 30) for _ in range(r + 2)]
    degree = r + 1 if kind == "never" else r
    start = rng.randint(0, 12) if kind == "noisy" else 0

    def value(n):
        if kind == "small":  # values this narrow stabilize by accident
            return rng.randint(0, 2)
        if n < start:
            return rng.randint(-100, 100)
        return int(sum((-1) ** i * c[i] * _binom_fraction(n - s, degree - i)
                       for i in range(degree + 1)))

    table = [value(n) for n in range(n_max + 2)]
    got = hb.fit_binomial(table.__getitem__, r, s, n_max)
    ref = _reference_fit(table.__getitem__, r, s, n_max)
    assert got == ref
    if kind == "polynomial" and n_max >= r + 2:
        assert got is not None and got[0] == c[:r + 1] and got[2] == 0
    if kind == "never" and c[0] != 0:
        assert got is None
